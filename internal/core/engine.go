package core

import (
	"pchls/internal/cdfg"
	"pchls/internal/sched"
)

// winEntry caches the result of one override window derivation for a
// (node, module) candidate. earlyStart/lateStart keep the full start
// arrays of the pasap/palap pair that produced the window: an entry
// stays provably valid across a commitment of node u at cycle s exactly
// when both runs already placed u at s under the committed module —
// fixing a node where the greedy schedulers put it anyway changes
// neither schedule (power sums are symmetric and added power never opens
// earlier slots), so the cached window is byte-identical to a recompute.
// Infeasible results (ok=false) carry no arrays and are dropped on the
// next commit.
type winEntry struct {
	w          sched.Window
	ok         bool
	earlyStart []int
	lateStart  []int
}

// engine is the exhaustive window derivation's cache: the base windows
// under the assumed modules and the override windows of every other
// candidate. Only the exhaustive regime builds it; on the SDC path its
// tables stay empty and it never warms. The cache never changes a design:
// every surviving override entry is proven exact by the per-commit filter
// in noteProbe, the base pair is either provably unchanged (baseValid) or
// re-derived in full, and the golden equivalence suites compare every
// cached run with Config.coldWindows, which drops the cache before each
// derivation.
type engine struct {
	// warm reports whether baseWin/over describe the current state; it is
	// cleared by any backtrack or abandoned derivation.
	warm bool
	// baseValid reports that the last commitment provably left the whole
	// base window pair unchanged (the post-commit probe equals the
	// previous one and the late schedule already had the committed node
	// at its committed start), so the next iteration can reuse baseWin
	// without any scheduler run.
	baseValid bool
	// probe is the exact post-commit pasap schedule — the base Early
	// schedule of the next iteration.
	probe *sched.Schedule
	// assumed snapshots the per-node module assumptions at cache-warming
	// time; entry validity across a commit requires the committed module
	// to equal the assumption the cached runs used.
	assumed []int
	// baseWin is the last derived window of every node under the assumed
	// modules.
	baseWin []sched.Window
	// over caches the override windows in a flat (node, module) table:
	// over[v*nm+mi] for a non-assumed candidate module mi of node v, with
	// overSet as the parallel presence bit.
	over    []winEntry
	overSet []bool
}

// newEngine builds the cold window cache of a fresh state; SDC-regime
// states get an empty engine.
func newEngine(st *state) *engine {
	if st.sdc {
		return &engine{}
	}
	n := st.g.N()
	return &engine{
		baseWin: make([]sched.Window, n),
		over:    make([]winEntry, n*st.nm),
		overSet: make([]bool, n*st.nm),
	}
}

// invalidateWindows drops the whole window cache (backtracks, abandoned
// derivations, the coldWindows hook).
func (e *engine) invalidateWindows() {
	e.warm = false
	e.baseValid = false
	e.probe = nil
	for i := range e.overSet {
		if e.overSet[i] {
			e.overSet[i] = false
			e.over[i] = winEntry{} // release the cached start arrays
		}
	}
}

// sameStarts reports whether two schedules place every node at the same
// start cycle.
func sameStarts(a, b *sched.Schedule) bool {
	if a == nil || b == nil || len(a.Start) != len(b.Start) {
		return false
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			return false
		}
	}
	return true
}

// computeEntry derives the cacheable override window entry for candidate
// (v, mi): the window plus the full start arrays of the pair that
// produced it. Width-zero windows cache as infeasible with their arrays
// kept — if the runs provably cannot change, neither can the verdict.
func (st *state) computeEntry(v cdfg.NodeID, mi int) winEntry {
	early, late, ok := st.windowSchedsFor(v, mi)
	if !ok {
		return winEntry{}
	}
	w := sched.Window{Early: early.Start[v], Late: late.Start[v]}
	return winEntry{w: w, ok: w.Width() >= 1, earlyStart: early.Start, lateStart: late.Start}
}
