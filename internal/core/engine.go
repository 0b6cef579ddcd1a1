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
// under the assumed modules, the override windows of every other
// candidate, and the dirty set that decides which of them a commitment
// may have moved. Only the exhaustive regime builds it; on the SDC path
// its tables stay empty and it never warms. The cache never changes a
// design: every surviving entry is proven exact by the per-commit filter
// in noteProbe, the pinned base derivation is audited against the full
// post-commit pasap probe and falls back to the full derivation on any
// disagreement, and the golden equivalence suites compare every cached
// run with Config.coldWindows, which drops the cache before each
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
	// schedule of the next iteration, and the auditor for the pinned
	// derivation.
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
	// dirty marks nodes whose windows may have changed since baseWin/over
	// were derived.
	dirty []bool

	// reach is the precedence reachability bitmap (reach.Get(u, v) means
	// v is reachable from u).
	reach cdfg.Bitmat
	// minStart/maxEnd bound, per node, every start/completion time any
	// schedule under the deadline can assign, using minimum candidate
	// delays; they are the conservative spans of the power-coupling
	// fixpoint.
	minStart, maxEnd []int
	// maxDelay is the largest candidate delay of each node, used to cover
	// a node's previous window span when seeding the fixpoint.
	maxDelay []int

	// markDirtyAfterCommit scratch, recycled across commits.
	changed []bool
	queue   []int
}

// newEngine builds the cold window cache of a fresh state and its static
// precedence artifacts (reachability and conservative spans); SDC-regime
// states get an empty engine.
func newEngine(st *state) (*engine, error) {
	if st.sdc {
		return &engine{}, nil
	}
	n := st.g.N()
	reach, err := st.g.Reachability()
	if err != nil {
		return nil, err
	}
	minDelay := make([]int, n)
	maxDelay := make([]int, n)
	for i := 0; i < n; i++ {
		for _, mi := range st.lib.Candidates(st.g.Node(cdfg.NodeID(i)).Op) {
			d := st.lib.Module(mi).Delay
			if minDelay[i] == 0 || d < minDelay[i] {
				minDelay[i] = d
			}
			if d > maxDelay[i] {
				maxDelay[i] = d
			}
		}
	}
	topo, err := st.g.TopoOrder()
	if err != nil {
		return nil, err
	}
	minStart := make([]int, n)
	downAfter := make([]int, n)
	for _, v := range topo {
		for _, p := range st.g.Preds(v) {
			if e := minStart[p] + minDelay[p]; e > minStart[v] {
				minStart[v] = e
			}
		}
	}
	maxEnd := make([]int, n)
	for i := len(topo) - 1; i >= 0; i-- {
		v := topo[i]
		for _, s := range st.g.Succs(v) {
			if e := downAfter[s] + minDelay[s]; e > downAfter[v] {
				downAfter[v] = e
			}
		}
		maxEnd[v] = st.cons.Deadline - downAfter[v]
	}
	return &engine{
		baseWin:  make([]sched.Window, n),
		over:     make([]winEntry, n*st.nm),
		overSet:  make([]bool, n*st.nm),
		dirty:    make([]bool, n),
		reach:    reach,
		minStart: minStart,
		maxEnd:   maxEnd,
		maxDelay: maxDelay,
		changed:  make([]bool, st.cons.Deadline),
	}, nil
}

// invalidateWindows drops the whole window cache (backtracks, abandoned
// derivations, the coldWindows hook).
func (e *engine) invalidateWindows() {
	e.warm = false
	e.baseValid = false
	e.probe = nil
	for i := range e.dirty {
		e.dirty[i] = false
	}
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

// markDirtyAfterCommit computes which nodes' windows the commitment of d
// may have changed and marks them dirty.
//
// Without a power cap, windows are pure functions of precedence and the
// fixed set, so exactly the committed node's ancestors and descendants
// can move. With a cap the disturbance also travels through the shared
// power profile: freeing or occupying cycles can move any node whose
// feasible span touches them, and each moved node drags its own
// precedence relatives along. That cascade is covered by a fixpoint over
// conservative spans — every dirty node contributes its span to the set
// of disturbed cycles and its precedence relatives to the dirty set,
// until no clean node's span overlaps a disturbed cycle.
func (st *state) markDirtyAfterCommit(d Decision) {
	eng := st.eng
	n := st.g.N()
	u := int(d.Node)
	if st.cons.PowerMax <= 0 {
		for v := 0; v < n; v++ {
			if !st.committed[v] && (eng.reach.Get(u, v) || eng.reach.Get(v, u)) {
				eng.dirty[v] = true
			}
		}
		return
	}
	changed := eng.changed
	for c := range changed {
		changed[c] = false
	}
	mark := func(lo, hi int) { // [lo, hi)
		if lo < 0 {
			lo = 0
		}
		if hi > len(changed) {
			hi = len(changed)
		}
		for c := lo; c < hi; c++ {
			changed[c] = true
		}
	}
	span := func(v int) (int, int) {
		if st.committed[v] {
			m := st.lib.Module(st.moduleOf[v])
			return st.start[v], st.start[v] + m.Delay
		}
		return eng.minStart[v], eng.maxEnd[v]
	}
	overlapsChanged := func(lo, hi int) bool {
		if lo < 0 {
			lo = 0
		}
		if hi > len(changed) {
			hi = len(changed)
		}
		for c := lo; c < hi; c++ {
			if changed[c] {
				return true
			}
		}
		return false
	}

	queue := eng.queue[:0]
	add := func(v int) {
		if !eng.dirty[v] && !st.committed[v] {
			eng.dirty[v] = true
			queue = append(queue, v)
		}
	}
	// Seeds: the cycles the committed node now occupies, the whole span
	// its previous base window could have covered, and its precedence
	// relatives.
	m := st.lib.Module(st.moduleOf[u])
	mark(d.Start, d.Start+m.Delay)
	mark(eng.baseWin[u].Early, eng.baseWin[u].Late+eng.maxDelay[u])
	for v := 0; v < n; v++ {
		if eng.reach.Get(u, v) || eng.reach.Get(v, u) {
			add(v)
		}
	}
	for {
		for len(queue) > 0 {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for v := 0; v < n; v++ {
				if eng.reach.Get(x, v) || eng.reach.Get(v, x) {
					add(v)
				}
			}
			lo, hi := span(x)
			mark(lo, hi)
		}
		progressed := false
		for v := 0; v < n; v++ {
			if eng.dirty[v] || st.committed[v] {
				continue
			}
			if lo, hi := span(v); overlapsChanged(lo, hi) {
				add(v)
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	eng.queue = queue[:0] // keep the grown capacity for the next commit
}
