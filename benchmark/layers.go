package main

import (
	"fmt"
	"math"
	"strings"

	"pchls/internal/core"
)

// Per-layer metrics. Every name is prefixed by the module it measures.
// Timings are medians of the traced run's probe spans; counters are deltas
// of the canonical work counters over the traced run, per operation. A
// layer a workload bypasses reads 0 in its counters.

// layerTimings maps a per-layer timing metric to the span it reads.
var layerTimings = []struct {
	metric, span string
	ms           bool // report in ms instead of µs
}{
	{"sched.pasap_us", "sched.PASAP", false},
	{"sched.palap_us", "sched.PALAP", false},
	{"sched.windows_us", "sched.Windows", false},
	{"sched.sdc_us", "sched.DeriveSDCBounds", false},
	{"core.synth_ms", "core.Synthesize", true},
	{"library.expand_us", "library.Expand", false},
	{"cdfg.partition_us", "cdfg.PartitionBalanced", false},
	{"cdfg.components_us", "cdfg.Components", false},
	{"cdfg.parse_json_us", "cdfg.ParseJSON", false},
	{"bind.build_us", "bind.Build", false},
	{"verify.check_us", "verify.Check", false},
	{"server.json_us", "Design.JSON", false},
	{"cache.key_us", "cache.Key", false},
	{"cluster.ring_owner_us", "Ring.Owner", false},
	{"power.lifetime_us", "power.Lifetime", false},
}

// statsCounters names the engine's Design.Stats counters canonically.
func statsCounters(st core.Stats) map[string]float64 {
	return map[string]float64{
		"sched_runs":           float64(st.SchedulerRuns),
		"pinned_runs":          float64(st.IncrementalRuns),
		"window_hits":          float64(st.WindowCacheHits),
		"window_misses":        float64(st.WindowCacheMisses),
		"window_invalidations": float64(st.WindowInvalidations),
		"fallbacks":            float64(st.Fallbacks),
		"profile_probes":       float64(st.ProfileProbes),
		"sdc_derivations":      float64(st.SDCDerivations),
		"compat_patches":       float64(st.CompatPatches),
		"regions":              float64(st.Regions),
		"region_repairs":       float64(st.RegionRepairs),
		"partition_fallbacks":  float64(st.PartitionFallbacks),
		"cut_edges":            float64(st.CutEdges),
		"cross_region_shares":  float64(st.SharedCrossRegion),
		"bound_tightenings":    float64(st.BoundTightenings),
	}
}

// perOp are the counters reported per operation: metric name, counter.
var perOp = [][2]string{
	{"sched.runs_per_op", "sched_runs"},
	{"sched.pinned_runs_per_op", "pinned_runs"},
	{"core.window_invalidations_per_op", "window_invalidations"},
	{"core.fallbacks_per_op", "fallbacks"},
	{"core.profile_probes_per_op", "profile_probes"},
	{"core.sdc_derivations_per_op", "sdc_derivations"},
	{"core.compat_patches_per_op", "compat_patches"},
	{"core.regions_per_op", "regions"},
	{"core.region_repairs_per_op", "region_repairs"},
	{"core.partition_fallbacks_per_op", "partition_fallbacks"},
	{"core.cut_edges_per_op", "cut_edges"},
	{"core.cross_region_shares_per_op", "cross_region_shares"},
	{"core.bound_tightenings_per_op", "bound_tightenings"},
	{"cache.evictions_per_op", "cache_evictions"},
	{"cache.coalesced_per_op", "cache_coalesced"},
	{"server.engine_runs_per_op", "engine_runs"},
	{"cluster.points_per_grid", "points"},
	{"cluster.steals_per_grid", "steals"},
}

// counterMetrics derives the per-layer counter metrics of one phase.
func counterMetrics(p *phase, chk checkResult) map[string]metric {
	d := func(name string) float64 { return p.after[name] - p.before[name] }
	ops := float64(p.attempted())
	out := map[string]metric{}
	for _, pc := range perOp {
		out[pc[0]] = metric{Value: ratio(d(pc[1]), ops), Unit: "count", base: fmt.Sprintf("%.0f over %.0f ops", d(pc[1]), ops)}
	}
	share := func(name, num string, dens ...string) {
		den := 0.0
		for _, dn := range dens {
			den += d(dn)
		}
		out[name] = metric{Value: ratio(d(num), den), Unit: "ratio", base: fmt.Sprintf("%.0f of %.0f", d(num), den)}
	}
	share("core.window_hit_ratio", "window_hits", "window_hits", "window_misses")
	share("cache.hit_ratio", "cache_hits", "cache_hits", "cache_misses", "cache_coalesced", "cache_peer_hits")
	share("cache.peer_hit_ratio", "cache_peer_hits", "cache_peer_hits", "cache_peer_misses")
	out["server.rejected"] = metric{Value: d("rejected"), Unit: "count"}
	out["server.queue_waiting_max"] = metric{Value: p.waitMax, Unit: "count"}
	out["cluster.retries"] = metric{Value: d("retries"), Unit: "count"}
	out["cluster.failures"] = metric{Value: d("pool_failures"), Unit: "count"}
	out["verify.failures"] = metric{Value: float64(chk.verifyFailures), Unit: "count"}

	// Worker skew: the busiest worker's engine runs over the mean.
	var runs []float64
	for name := range p.after {
		if strings.HasPrefix(name, "worker_runs/") {
			runs = append(runs, d(name))
		}
	}
	mean, hi := 0.0, 0.0
	for _, r := range runs {
		mean += r / float64(len(runs))
		hi = math.Max(hi, r)
	}
	out["cluster.worker_skew"] = metric{Value: ratio(hi, mean), Unit: "ratio", base: fmt.Sprintf("%d workers", len(runs))}
	return out
}

// layerMetrics derives every per-layer metric of a traced phase.
func layerMetrics(p *phase, p50ms float64, spans []span, chk checkResult) map[string]metric {
	layers := counterMetrics(p, chk)
	for _, lt := range layerTimings {
		v, unit := medianDurUS(spans, lt.span), "us"
		if lt.ms {
			v, unit = v/1e3, "ms"
		}
		layers[lt.metric] = metric{Value: v, Unit: unit, base: fmt.Sprintf("%d spans", countSpans(spans, lt.span))}
	}
	// Estimated scheduler share of an operation: full scheduler runs times
	// the mean probe cost of one pasap/palap run, over the median latency.
	probeUS := (layers["sched.pasap_us"].Value + layers["sched.palap_us"].Value) / 2
	layers["sched.est_share"] = metric{Value: ratio(layers["sched.runs_per_op"].Value*probeUS, p50ms*1e3), Unit: "ratio",
		base: fmt.Sprintf("%.4g runs x %.4g us over %.4g ms", layers["sched.runs_per_op"].Value, probeUS, p50ms)}
	layers["core.best_over_single"] = metric{Value: pairedRatio(spans, "facade.SynthesizeBest", "core.Synthesize"), Unit: "ratio",
		base: "SynthesizeBest over single-pass Synthesize on the same input"}
	layers["cluster.overhead_ratio"] = metric{Value: pairedRatio(spans, "client.post", "explore.ExploreSurface"), Unit: "ratio",
		base: "sharded grid latency over a direct ExploreSurface of the same grid"}
	self := selfTimes(spans)
	var opSelf []float64
	for _, s := range spans {
		if s.Name == "op" {
			opSelf = append(opSelf, float64(self[s.ID])/1e3)
		}
	}
	layers["harness.self_us"] = metric{Value: medianOr0(opSelf), Unit: "us", base: fmt.Sprintf("%d op spans", len(opSelf))}
	return layers
}

// The layer-specific timings below are printed but kept out of the JSON
// line: a workload that never reaches the layer has no time for it.

// serverTimings splits a server workload's client latency into the
// handlers' time (pchls_request_seconds) and the transport around it.
func serverTimings(p *phase) map[string]metric {
	n := p.after["handler_n"] - p.before["handler_n"]
	if n <= 0 {
		return nil
	}
	handler := (p.after["handler_s"] - p.before["handler_s"]) / n * 1e3
	return map[string]metric{
		"server.handler_ms":   {Value: handler, Unit: "ms", base: fmt.Sprintf("%.0f requests", n)},
		"server.transport_ms": {Value: meanOf(p.latencies()) - handler, Unit: "ms", base: "client mean minus handler mean"},
	}
}

// exploreTimings reports the fleet probes' direct explorations.
func exploreTimings(spans []span) map[string]metric {
	out := map[string]metric{}
	for name, sp := range map[string]string{"explore.surface_ms": "explore.ExploreSurface", "explore.pareto_ms": "explore.ExplorePareto"} {
		if n := countSpans(spans, sp); n > 0 {
			out[name] = metric{Value: medianDurUS(spans, sp) / 1e3, Unit: "ms", base: fmt.Sprintf("%d spans", n)}
		}
	}
	return out
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// pairedRatio is the median, over requests that have both, of the duration
// of span num over the duration of span den.
func pairedRatio(spans []span, num, den string) float64 {
	nums, dens := map[int64]int64{}, map[int64]int64{}
	for _, s := range spans {
		switch s.Name {
		case num:
			nums[s.Req] = s.dur()
		case den:
			dens[s.Req] = s.dur()
		}
	}
	var rs []float64
	for req, n := range nums {
		if dd, ok := dens[req]; ok && dd > 0 {
			rs = append(rs, float64(n)/float64(dd))
		}
	}
	return medianOr0(rs)
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
