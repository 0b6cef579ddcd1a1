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
	// refOK reports that the state's kit.ref, the replay reference of the
	// override runs (sched.Reference), describes the current base pair: an
	// override run copies the nodes it shares with the base pair and
	// patches the base selection order. The coldWindows oracle never sets
	// it.
	refOK bool
	// bounded reports that st.sdcB holds the precedence bound of the
	// current iteration (refutedPair), derived at its first cache miss.
	bounded bool
	// slotOf indexes the candidate slots; the start arrays of the override
	// runs live in the state's kit.slab. lateBase is the base palap's
	// start buffer.
	slotOf   []int
	lateBase []int
}

// kit is the scheduler scratch of one synthesis state over graph g: the
// arena, the replay reference of the override runs and their start slab.
// The states of one SynthesizeBest call borrow kits from the call's pool
// (Config.kits) and give them back when they end, so the ladder allocates
// them once per concurrent state instead of once per state, and the
// reference's memoized patched orders carry over to every later state
// whose delays match. Nothing a design keeps points into a kit.
//
// slab holds the start arrays of the override runs: the candidate in slot
// k owns the 2n ints from k*2n, its early starts then its late starts, so
// a run writes straight into the arrays its cache entry keeps. A slot is
// rewritten only when its entry is recomputed, after the old entry was
// dropped (or by a later state, after this one ended). It is allocated on
// first use.
type kit struct {
	g     *cdfg.Graph
	arena *sched.Arena
	ref   sched.Reference
	slab  []int
}

// borrowKit returns a kit for a state over g: one from the pool when
// there is one and it holds a kit of g, a fresh one otherwise.
func (c Config) borrowKit(g *cdfg.Graph) *kit {
	if c.kits != nil {
		if k, ok := c.kits.Get().(*kit); ok && k.g == g {
			return k
		}
	}
	return &kit{g: g, arena: sched.NewArena(g)}
}

// topoOrder returns the topological order of the state's graph, cached in
// the kit's arena. newState validated the graph, so it is acyclic.
func (st *state) topoOrder() []cdfg.NodeID {
	topo, _ := st.kit.arena.TopoOrder()
	return topo
}

// release gives the state's kit back to its pool, when it has one; the
// state must not run the schedulers afterwards.
func (st *state) release() {
	if st.cfg.kits != nil {
		st.cfg.kits.Put(st.kit)
	}
	st.kit = nil
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
	if len(st.kit.slab) != len(eng.over)*2*n {
		st.kit.slab = make([]int, len(eng.over)*2*n)
	}
	at := eng.slotOf[v] + j
	slot := st.kit.slab[at*2*n : (at+1)*2*n]
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
