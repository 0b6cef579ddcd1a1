package sched

import (
	"fmt"
	"slices"

	"pchls/internal/cdfg"
)

// Reference is a completed pasap/palap pair, kept so that a later run
// under the same options except for one node's delay and power — an
// override of that node's module, named by Options.Ref and
// Options.RefNode — replays what it shares with the pair instead of
// recomputing it. For an override of node v:
//
//   - The selection order is patched, not re-sorted. A node's
//     critical-first priority is its longest delay-weighted path to a
//     sink, so changing v's delay changes the priority of v and of v's
//     ancestors only (on palap's reversed graph: of v's descendants). One
//     backward sweep from v re-ranks them; every other node keeps its
//     reference priority and its relative order, and the re-ranked ones
//     are merged back in.
//   - The shared prefix is copied. A node that precedes both the first
//     difference of the two orders and v sees what it saw in the
//     reference run: the same placed predecessors, fixed successors,
//     release, due and bounds, and the same power profile, built by the
//     same nodes in the same order (so even the floating-point sums
//     agree). The greedy placement therefore puts it where the reference
//     did, and the run takes its start from the reference pair and adds
//     its power to the profile again without a search. A pasap run's
//     automatic horizon depends on every delay, so a copied start must
//     also end within the run's own horizon; copying stops at the first
//     one that does not, and the run goes on in full from there.
//
// The result, failures included, is the one a full run gives.
// TestReplayMatchesFullRuns and FuzzReplay hold it to that.
//
// A Reference serves the graph of the arena it was reset with and is not
// safe for concurrent use.
type Reference struct {
	g      *cdfg.Graph
	sel    Selection
	delay  []int
	starts []Window
	fwd    refOrder // selection order of the pasap run (on g)
	rev    refOrder // selection order of the palap run (on g reversed)
}

// refOrder is a reference selection order on one graph: the order, each
// node's position in it, and the priorities it is sorted by. memo keeps
// the patched order of every override met since the delays last changed:
// memo[v] lists node v's override delays, each with the offset of its
// order in ids and the length of its shared prefix.
type refOrder struct {
	g     *cdfg.Graph
	order []cdfg.NodeID
	pos   []int
	prio  []int
	memo  [][]patched
	ids   []cdfg.NodeID
}

// patched is one memoized override order (see refOrder).
type patched struct {
	delay, at, shared int
}

// Reset makes r the reference of the pair that PASAP and PALAP derive
// under opts: starts[i] is node i's Early (pasap) and Late (palap) start.
// r keeps starts, so its contents must stay unchanged while runs replay
// r; the delay table is copied. The selection orders depend on the graph,
// the policy and the delays only, so they and the patched orders memoized
// under them are kept when those are unchanged, and otherwise computed
// again, on opts.Arena's graph and its reverse; without an arena no run
// replays r.
func (r *Reference) Reset(g *cdfg.Graph, bind Binding, opts Options, starts []Window) error {
	if err := opts.check(g); err != nil {
		return err
	}
	if len(starts) != g.N() {
		return fmt.Errorf("sched: reference: %d starts for %d nodes", len(starts), g.N())
	}
	delay, _ := opts.tables(g, bind)
	r.starts = starts
	if r.g == g && r.sel == opts.Select && slices.Equal(r.delay, delay) {
		return nil
	}
	r.g, r.sel = g, opts.Select
	r.delay = append(r.delay[:0], delay...)
	opts.Delays = r.delay
	a := opts.arenaFor(g)
	if err := r.fwd.reset(g, bind, &opts, a); err != nil {
		r.g = nil
		return err
	}
	if err := r.rev.reset(a.reverseOf(g), bind, &opts, a); err != nil {
		r.g = nil
		return err
	}
	return nil
}

func (s *refOrder) reset(g *cdfg.Graph, bind Binding, opts *Options, a *Arena) error {
	var order []cdfg.NodeID
	var prio []int
	var err error
	if opts.Select == SmallestID {
		order, err = a.topoFor(g)
	} else {
		order, prio, err = criticalFirstOrderPrio(g, bind, opts, a)
	}
	if err != nil {
		return err
	}
	n := len(order)
	s.g = g
	s.order = append(s.order[:0], order...)
	s.prio = append(s.prio[:0], prio...)
	s.pos = growInts(&s.pos, n)
	for i, id := range order {
		s.pos[id] = i
	}
	if len(s.memo) != n {
		s.memo = make([][]patched, n)
	}
	for v := range s.memo {
		s.memo[v] = s.memo[v][:0]
	}
	s.ids = s.ids[:0]
	return nil
}

// replay is one run's view of a Reference: the order of the run's
// direction, the overridden node, and the frame reference starts are read
// in (palap runs on the reversed graph, in reversed time).
type replay struct {
	ref      *Reference
	side     *refOrder // nil: no replay
	v        cdfg.NodeID
	late     bool
	deadline int
}

// replayOf returns the replay of o.Ref for a run on g with the given
// tables, or none when the run may not use it (see Options.Ref).
func (o *Options) replayOf(g *cdfg.Graph, delay []int, late bool, deadline int) replay {
	r, v := o.Ref, o.RefNode
	a := o.arenaFor(g)
	if r == nil || a == nil || r.g != g || r.sel != o.Select || v < 0 || int(v) >= g.N() {
		return replay{}
	}
	if _, fixed := o.fixedAt(v); fixed {
		return replay{}
	}
	side := &r.fwd
	if late {
		if side = &r.rev; side.g != a.rev {
			return replay{}
		}
	}
	return replay{ref: r, side: side, v: v, late: late, deadline: deadline}
}

// start returns node id's reference start in the run's time frame.
func (rp *replay) start(id cdfg.NodeID, delay []int) int {
	w := rp.ref.starts[id]
	if rp.late {
		return rp.deadline - w.Late - delay[id]
	}
	return w.Early
}

// order returns the run's selection order and how many of its leading
// nodes the run shares with the reference: those before both the first
// position where the order differs from the reference's and v.
func (rp *replay) order(g *cdfg.Graph, a *Arena, sel Selection, delay []int) ([]cdfg.NodeID, int) {
	s, v := rp.side, rp.v
	old, d := max(rp.ref.delay[v], 1), max(delay[v], 1)
	if sel == SmallestID || d == old {
		return s.order, s.pos[v]
	}
	n := len(s.order)
	for _, p := range s.memo[v] {
		if p.delay == d {
			return s.ids[p.at : p.at+n], p.shared
		}
	}
	order, shared := rp.patch(g, a, delay)
	s.memo[v] = append(s.memo[v], patched{delay: d, at: len(s.ids), shared: shared})
	s.ids = append(s.ids, order...)
	return order, shared
}

// patch derives the order of an override of v to a new delay from the
// reference order (see Reference) and returns it with its shared prefix
// length.
func (rp *replay) patch(g *cdfg.Graph, a *Arena, delay []int) ([]cdfg.NodeID, int) {
	s, v := rp.side, rp.v
	old, d := max(rp.ref.delay[v], 1), max(delay[v], 1)
	n := len(s.order)
	// Re-rank v and the ancestors whose priority moves with it. The
	// reference order is topological and has every ancestor of v before
	// v, so a backward sweep from v visits each node after all of its
	// successors and sees every re-ranked one.
	isMoved := growBools(&a.isMoved, n)
	newPrio := growInts(&a.newPrio, n)
	moved := append(a.moved[:0], v)
	newPrio[v], isMoved[v] = s.prio[v]-old+d, true
	for i := s.pos[v] - 1; i >= 0; i-- {
		u := s.order[i]
		best, touched := 0, false
		for _, w := range g.Succs(u) {
			if isMoved[w] {
				best, touched = max(best, newPrio[w]), true
			} else {
				best = max(best, s.prio[w])
			}
		}
		if p := best + max(delay[u], 1); touched && p != s.prio[u] {
			newPrio[u], isMoved[u] = p, true
			moved = append(moved, u)
		}
	}
	// Sort the few re-ranked nodes by their new rank, then merge them
	// into the others, which keep their reference order.
	for i := 1; i < len(moved); i++ {
		for j := i; j > 0 && ranksBefore(newPrio[moved[j]], moved[j], newPrio[moved[j-1]], moved[j-1]); j-- {
			moved[j], moved[j-1] = moved[j-1], moved[j]
		}
	}
	order := growIDs(&a.order, n)
	k, m, vAt := 0, 0, n
	emit := func(id cdfg.NodeID) {
		if id == v {
			vAt = k
		}
		order[k] = id
		k++
	}
	for _, u := range s.order {
		if isMoved[u] {
			continue
		}
		for ; m < len(moved) && ranksBefore(newPrio[moved[m]], moved[m], s.prio[u], u); m++ {
			emit(moved[m])
		}
		emit(u)
	}
	for ; m < len(moved); m++ {
		emit(moved[m])
	}
	for _, u := range moved {
		isMoved[u] = false
	}
	a.moved = moved
	shared := 0
	for shared < vAt && order[shared] == s.order[shared] {
		shared++
	}
	return order, shared
}

// ranksBefore reports whether a node of priority p and ID id comes before
// one of priority q and ID jd in the critical-first order.
func ranksBefore(p int, id cdfg.NodeID, q int, jd cdfg.NodeID) bool {
	return p > q || (p == q && id < jd)
}
