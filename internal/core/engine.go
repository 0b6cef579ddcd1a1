package core

import (
	"pchls/internal/cdfg"
	"pchls/internal/sched"
)

// winEntry caches the result of one override window derivation for a
// (node, module) candidate; cached marks a slot that holds one.
// earlyStart/lateStart keep the full start arrays of the pasap/palap pair
// that produced the window: an entry stays provably valid across a
// commitment of node u at cycle s exactly when both runs already placed u
// at s under the committed module — fixing a node where the greedy
// schedulers put it anyway changes neither schedule (power sums are
// symmetric and added power never opens earlier slots), so the cached
// window is byte-identical to a recompute. Infeasible results (ok=false)
// carry no arrays and are dropped on the next commit. The arrays are the
// candidate's slot in the engine's slab.
type winEntry struct {
	w          sched.Window
	ok, cached bool
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
	// probe is the exact pasap schedule of the current state: the last
	// post-commit probe, or the base Early schedule derived since. It is
	// the base Early schedule of the next iteration, and the next
	// post-commit probe too when that commit fixes a node where it
	// already sits (probeCovers). SDC-regime states keep it as well.
	probe *sched.Schedule
	// assumed snapshots the per-node module assumptions at cache-warming
	// time; entry validity across a commit requires the committed module
	// to equal the assumption the cached runs used.
	assumed []int
	// baseWin is the last derived window of every node under the assumed
	// modules.
	baseWin []sched.Window
	// over caches the override windows by candidate slot: candidate j of
	// node v (st.cand[v][j]) owns over[slotOf[v]+j], so node v's entries
	// are the range slotOf[v]..slotOf[v+1].
	over []winEntry
	// ref is the base pair as the replay reference of the override runs
	// (sched.Reference): an override run copies the nodes it shares with
	// the base pair and patches the base selection order. refOK reports
	// that ref describes the current base pair; the coldWindows oracle
	// never sets it.
	ref   sched.Reference
	refOK bool
	// slab holds the start arrays of the override runs: the candidate in
	// slot k owns the 2n ints from k*2n, its early starts then its late
	// starts, so a run writes straight into the arrays its cache entry
	// keeps. A slot is rewritten only when its
	// entry is recomputed, after the old entry was dropped. It is
	// allocated on first use. lateBase is the base palap's start buffer.
	slab     []int
	slotOf   []int
	lateBase []int
}

// newEngine builds the cold window cache of a fresh state; SDC-regime
// states get an empty engine.
func newEngine(st *state) *engine {
	if st.sdc {
		return &engine{}
	}
	n := st.g.N()
	eng := &engine{
		baseWin:  make([]sched.Window, n),
		slotOf:   make([]int, n+1),
		lateBase: make([]int, n),
	}
	for v := range n {
		eng.slotOf[v+1] = eng.slotOf[v] + len(st.cand[v])
	}
	eng.over = make([]winEntry, eng.slotOf[n])
	return eng
}

// overrideStarts returns the slab arrays of candidate j of node v for its
// override runs to write into.
func (st *state) overrideStarts(v cdfg.NodeID, j int) (early, late []int) {
	eng, n := st.eng, st.g.N()
	if eng.slab == nil {
		eng.slab = make([]int, len(eng.over)*2*n)
	}
	at := eng.slotOf[v] + j
	slot := eng.slab[at*2*n : (at+1)*2*n]
	return slot[:n:n], slot[n:]
}

// invalidateWindows drops the whole window cache (backtracks, abandoned
// derivations, the coldWindows hook).
func (e *engine) invalidateWindows() {
	e.warm = false
	e.baseValid = false
	e.refOK = false
	e.probe = nil
	clear(e.over)
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
// j of node v under the iteration's base options: the window plus the
// full start arrays of the pair that produced it. Width-zero windows cache
// as infeasible with their arrays kept — if the runs provably cannot
// change, neither can the verdict.
func (st *state) computeEntry(v cdfg.NodeID, j int, opts sched.Options) winEntry {
	early, late, ok := st.windowSchedsFor(v, j, opts)
	if !ok {
		return winEntry{}
	}
	w := sched.Window{Early: early[v], Late: late[v]}
	return winEntry{w: w, ok: w.Width() >= 1, earlyStart: early, lateStart: late}
}
