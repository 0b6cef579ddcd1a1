package core

import "fmt"

// Stats counts the work one synthesis run performed. It is the
// observability surface of the evaluation engine: SchedulerRuns counts the
// scheduler work, and the cache counters explain where the window cache
// saved runs. All counters are zero-based per run; Design.Stats carries
// the counters of the run that produced the design.
type Stats struct {
	// SchedulerRuns counts full pasap/palap executions (probes, window
	// derivations, per-candidate overrides).
	SchedulerRuns int64
	// IncrementalRuns is always 0: no window derivation pins nodes any
	// more. It stays because the v1 wire carries it (the
	// X-Pchls-Incremental-Runs header, total_stats.incremental_runs and
	// pchls_engine_incremental_runs_total) and the benchmark harness
	// reads it.
	IncrementalRuns int64
	// WindowCacheHits counts (node, module) candidate windows served from
	// the engine's cache without any scheduler run.
	WindowCacheHits int64
	// WindowCacheMisses counts candidate windows that had to be computed
	// by a full pasap/palap pair because the node was invalidated (or
	// never cached).
	WindowCacheMisses int64
	// WindowInvalidations counts cached candidate entries discarded by
	// the post-commit invalidation rule.
	WindowInvalidations int64
	// FullInvalidations counts whole-cache resets: backtracks, and warm
	// iterations whose base pair failed.
	FullInvalidations int64
	// Fallbacks is always 0: there is no incremental derivation left to
	// fall back from. It stays because the benchmark harness reads it.
	Fallbacks int64
	// ProfileProbes counts freeSlot feasibility probes against the
	// committed power profile.
	ProfileProbes int64
	// SDCDerivations counts iterations whose candidate windows came from
	// the SDC difference-constraint bounds (one O(V+E) pass) instead of
	// per-candidate scheduler pairs: every iteration of an uncapped run,
	// and of a capped run on a graph of at least 160 nodes.
	SDCDerivations int64
	// CompatPatches is always 0: no incremental compatibility graph is
	// maintained any more (freeSlot decides each sharing on demand). It
	// stays because the benchmark harness reads it.
	CompatPatches int64
	// Regions counts the parts of a decomposition stitched into the design,
	// whether they came from weakly-connected components or from a min-cut
	// partition (zero for monolithic synthesis); RegionRepairs counts parts
	// the acceptance walk re-synthesized against the power committed by the
	// parts accepted before them, because they broke the cap jointly;
	// PartitionFallbacks counts decompositions abandoned for the monolithic
	// path.
	Regions            int64
	RegionRepairs      int64
	PartitionFallbacks int64
	// CutEdges counts the edges severed by the min-cut partitioning of a
	// connected graph (zero for component decomposition, which severs none,
	// and for monolithic runs); BoundaryTransfers counts committed-finish
	// pins threaded across those edges into downstream parts (one per cut
	// edge per partitioned attempt that reached the downstream part).
	CutEdges          int64
	BoundaryTransfers int64
	// SharedCrossRegion counts functional-unit instances eliminated by the
	// cross-region sharing pass of the stitch merge (operations re-timed
	// within precedence slack onto an instance from another region).
	SharedCrossRegion int64
	// BoundTightenings is always 0: parts see the power of earlier parts
	// in their committed profile, and no window rule shrinks their SDC
	// windows any more. It stays because the benchmark harness reads it.
	BoundTightenings int64
}

// Add returns the field-wise sum of s and o, for aggregating the stats of
// several runs (e.g. the points of a sweep).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		SchedulerRuns:       s.SchedulerRuns + o.SchedulerRuns,
		IncrementalRuns:     s.IncrementalRuns + o.IncrementalRuns,
		WindowCacheHits:     s.WindowCacheHits + o.WindowCacheHits,
		WindowCacheMisses:   s.WindowCacheMisses + o.WindowCacheMisses,
		WindowInvalidations: s.WindowInvalidations + o.WindowInvalidations,
		FullInvalidations:   s.FullInvalidations + o.FullInvalidations,
		Fallbacks:           s.Fallbacks + o.Fallbacks,
		ProfileProbes:       s.ProfileProbes + o.ProfileProbes,
		SDCDerivations:      s.SDCDerivations + o.SDCDerivations,
		CompatPatches:       s.CompatPatches + o.CompatPatches,
		Regions:             s.Regions + o.Regions,
		RegionRepairs:       s.RegionRepairs + o.RegionRepairs,
		PartitionFallbacks:  s.PartitionFallbacks + o.PartitionFallbacks,
		CutEdges:            s.CutEdges + o.CutEdges,
		BoundaryTransfers:   s.BoundaryTransfers + o.BoundaryTransfers,
		SharedCrossRegion:   s.SharedCrossRegion + o.SharedCrossRegion,
		BoundTightenings:    s.BoundTightenings + o.BoundTightenings,
	}
}

// String formats the counters as an aligned block, one per line.
func (s Stats) String() string {
	return fmt.Sprintf(
		"  scheduler runs (full)        %8d\n"+
			"  window cache hits            %8d\n"+
			"  window cache misses          %8d\n"+
			"  window invalidations         %8d\n"+
			"  full cache invalidations     %8d\n"+
			"  profile probes               %8d\n"+
			"  sdc window derivations       %8d\n"+
			"  regions stitched             %8d\n"+
			"  region repairs               %8d\n"+
			"  partition fallbacks          %8d\n"+
			"  cut edges                    %8d\n"+
			"  boundary transfers           %8d\n"+
			"  cross-region shares          %8d\n",
		s.SchedulerRuns,
		s.WindowCacheHits, s.WindowCacheMisses,
		s.WindowInvalidations, s.FullInvalidations,
		s.ProfileProbes, s.SDCDerivations,
		s.Regions, s.RegionRepairs, s.PartitionFallbacks,
		s.CutEdges, s.BoundaryTransfers, s.SharedCrossRegion)
}
