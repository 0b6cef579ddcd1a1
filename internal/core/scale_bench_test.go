package core

// Scaling benchmark lane: synthesis wall-time on seeded random graphs of
// 100, 300 and 1000 computation nodes, comparing the scaling engine
// (auto-selected SDC windows and hierarchical decomposition — the default
// Config) against the pre-refactor path (exhaustive per-candidate windows,
// no decomposition).
// Each tier with both modes measured fails when the legacy-over-scale
// wall-time ratio drops below its floor. TestScalingCountersAndAllocs pins
// the scale mode's work, area and allocations on the CI tiers; the large
// workload of the benchmark/ harness A/B-gates its wall time.
//
//	go test -bench Scaling -benchtime 1x ./internal/core

import (
	"context"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// scalingTier is one (shape, size) point of the lane.
type scalingTier struct {
	name   string
	preset gen.Preset
	nodes  int
	// connect bridges the generated graph into a single weakly-connected
	// component (gen.GraphConfig.Connect). Connected tiers exercise the
	// min-cut decomposition, and their legacy mode is the serial
	// monolithic SDC pass (Partition off) rather than the exhaustive
	// pre-refactor engine — the comparison the min-cut speedup floor is
	// defined against.
	connect bool
	// minSpeedup is the floor on the legacy/scale wall-time ratio; zero
	// for the n=100 control tier, whose modes take the same path.
	minSpeedup float64
}

// scalingTiers is the published tier set. The floors were set from the
// ratios measured on a 1-core 2.1 GHz Xeon: layered-n300 105x, blocks-n300
// 170x, layered-n1000 2153x, blocks-n1000 4300x, layered-n1000-connected
// 6.3x, mixed-n1000-connected 4.6x.
var scalingTiers = []scalingTier{
	{"layered-n100", gen.PresetLayered, 100, false, 0},
	{"layered-n300", gen.PresetLayered, 300, false, 25},
	{"blocks-n300", gen.PresetBlocks, 300, false, 25},
	{"layered-n1000", gen.PresetLayered, 1000, false, 50},
	{"blocks-n1000", gen.PresetBlocks, 1000, false, 200},
	{"layered-n1000-connected", gen.PresetLayered, 1000, true, 4},
	{"mixed-n1000-connected", gen.PresetMixed, 1000, true, 3},
}

// scalingInstance derives the tier's seeded instance and a binding but
// feasible constraint point: 50% deadline slack over the fastest-module
// ASAP length, power capped at 70% of the unconstrained ASAP peak. The
// point is deterministic in the tier (fixed seed) and verified feasible
// outside any timer, loosening the cap in 20% steps only as a safety
// valve (the published tiers all accept the first point).
func scalingInstance(tb testing.TB, tier scalingTier) (*cdfg.Graph, *library.Library, Constraints) {
	tb.Helper()
	cfg, err := gen.PresetConfig(tier.preset, tier.nodes)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Connect = tier.connect
	inst := gen.NewInstance(int64(1000+tier.nodes), gen.InstanceConfig{Graph: cfg})
	asap, err := sched.ASAP(inst.Graph, sched.UniformFastest(inst.Library))
	if err != nil {
		tb.Fatal(err)
	}
	cons := Constraints{
		Deadline: asap.Length() + asap.Length()/2,
		PowerMax: asap.PeakPower() * 0.7,
	}
	for tries := 0; ; tries++ {
		if _, err := Synthesize(inst.Graph, inst.Library, cons, Config{}); err == nil {
			break
		}
		switch {
		case cons.PowerMax <= 0:
			tb.Fatalf("%s: unconstrained point infeasible: deadline too tight", tier.name)
		case tries >= 3:
			cons.PowerMax = 0 // latency-only fallback
		default:
			cons.PowerMax *= 1.2
		}
	}
	return inst.Graph, inst.Library, cons
}

// BenchmarkScaling runs every tier in both engine modes and fails a tier
// whose legacy/scale ratio of time per op (of the last -count run of each
// mode) is below its floor. The legacy mode of the n=100 tier doubles as
// the control: below the auto thresholds both modes take the identical
// code path, so their times must agree.
func BenchmarkScaling(b *testing.B) {
	for _, tier := range scalingTiers {
		modes := []struct {
			tag string
			cfg Config
		}{
			{"scale", Config{}},
			{"legacy", Config{windows: windowsExhaustive, partition: partitionOff}},
		}
		if tier.connect {
			// Connected tiers measure the min-cut decomposition, whose
			// published floor is against the serial monolithic SDC pass
			// (the previous default for a single-component graph), not
			// the exhaustive engine.
			modes[1].cfg = Config{partition: partitionOff}
		}
		g, lib, cons := scalingInstance(b, tier)
		perOp := map[string]time.Duration{}
		for _, mode := range modes {
			b.Run(tier.name+"/"+mode.tag, func(b *testing.B) {
				// One exhaustive-legacy pass over an n=1000 graph takes
				// ~20 minutes (it is the O(n^3) path this lane exists to
				// retire), so the full-ratio run is opt-in: `make
				// bench-scaling` sets the variable; plain `-bench .`
				// smokes stay fast. The connected tiers' legacy mode is
				// the serial SDC pass (seconds, not minutes) and always
				// runs.
				if mode.tag == "legacy" && tier.nodes >= 1000 && !tier.connect && os.Getenv("PCHLS_SCALING_FULL") == "" {
					b.Skip("legacy n>=1000 tier skipped; set PCHLS_SCALING_FULL=1 (make bench-scaling)")
				}
				b.ReportAllocs()
				var st Stats
				pprof.Do(context.Background(),
					pprof.Labels("graph", tier.name, "mode", mode.tag, "lane", "scaling"),
					func(context.Context) {
						for i := 0; i < b.N; i++ {
							d, err := Synthesize(g, lib, cons, mode.cfg)
							if err != nil {
								b.Fatal(err)
							}
							st = d.Stats
						}
					})
				b.ReportMetric(float64(st.SDCDerivations), "sdc-derivations")
				b.ReportMetric(float64(st.Regions), "regions")
				perOp[mode.tag] = b.Elapsed() / time.Duration(b.N)
			})
		}
		scale, legacy := perOp["scale"], perOp["legacy"]
		if tier.minSpeedup > 0 && scale > 0 && legacy > 0 {
			if speedup := float64(legacy) / float64(scale); speedup < tier.minSpeedup {
				b.Errorf("%s: legacy/scale = %.1fx (%v / %v), below the %.0fx floor", tier.name, speedup, legacy, scale, tier.minSpeedup)
			}
		}
	}
}
