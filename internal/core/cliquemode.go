package core

import (
	"fmt"
	"sort"

	"pchls/internal/cdfg"
	"pchls/internal/clique"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// SynthesizeCliquePartition is the static one-shot variant of the
// synthesis problem, following the original clique-partitioning
// formulation the paper extends: the power-feasible mobility windows are
// derived once (not re-derived after every commitment), the time-extended
// compatibility graph over the assumed module assignment is partitioned
// with the greedy maximum-gain clique partitioner, and a final
// resource-constrained, power-constrained packing assigns concrete start
// times.
//
// It exists as the baseline for the DESIGN.md ablation "why re-derive the
// windows after every decision": it is faster but fails or produces worse
// area near tight constraints, where the incremental algorithm adapts.
func SynthesizeCliquePartition(g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config) (*Design, error) {
	lib, err := expandLevels(lib)
	if err != nil {
		return nil, err
	}
	// Reuse the module-assumption machinery of the incremental algorithm.
	st, err := newState(g, lib, cons, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	if err := st.refineInitialModules(); err != nil {
		return nil, err
	}

	// Static windows under the assumed modules.
	opts := sched.Options{PowerMax: cons.PowerMax, Delays: st.delays, Powers: st.powers, Arena: st.kit.arena}
	st.stats.SchedulerRuns += 2
	windows, err := sched.Windows(g, st.baseBind, cons.Deadline, opts)
	if err != nil {
		return nil, fmt.Errorf("core: clique mode: %w: %w", ErrInfeasible, err)
	}
	reach, err := g.Reachability()
	if err != nil {
		return nil, err
	}

	// Compatibility graph over the nodes (one candidate per node: its
	// assumed module). Nodes with empty heuristic windows are widened to
	// their pasap point so they can still be placed (the incremental
	// algorithm would have repaired them; the static variant does not).
	n := g.N()
	for i := range windows {
		if windows[i].Width() < 1 {
			windows[i].Late = windows[i].Early
		}
	}
	cg := clique.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if st.moduleOf[i] != st.moduleOf[j] {
				continue
			}
			d := lib.Module(st.moduleOf[i]).Delay
			ab := reach.Get(i, j)
			ba := reach.Get(j, i)
			// Same-delay check suffices: both use the same module.
			if canShare(windows[i], windows[j], d, ab, ba) {
				cg.SetCompatible(i, j)
			}
		}
	}

	// Greedy maximum-gain partitioning: merging two cliques of the same
	// module saves one instance; the gain function also verifies a
	// sequential packing of the union exists within the static windows.
	gain := func(a, b []int) (float64, bool) {
		union := append(append([]int(nil), a...), b...)
		if !packable(g, st, windows, union) {
			return 0, false
		}
		m := lib.Module(st.moduleOf[a[0]])
		return m.Area, true
	}
	partition := clique.Greedy(cg, gain)

	partition, err = repairPack(g, st, windows, reach, partition)
	if err != nil {
		return nil, err
	}
	st.locked = true // start times are final; Decisions log is synthetic
	for _, block := range partition {
		fu := st.addInstance(st.moduleOf[block[0]], nil)
		for _, v := range block {
			st.fuOf[v] = fu
			st.fus[fu].ops = append(st.fus[fu].ops, cdfg.NodeID(v))
			st.noteOp(fu, cdfg.NodeID(v))
			st.markCommitted(cdfg.NodeID(v), true)
			st.decisions = append(st.decisions, Decision{
				Node: cdfg.NodeID(v), Module: lib.Module(st.moduleOf[v]).Name,
				FU: fu, NewFU: len(st.fus[fu].ops) == 1, Start: st.start[v],
			})
		}
	}
	// The bulk commits above bypassed commit(); bring the profile up to
	// date for the merge pass.
	st.rebuildCommitted()
	st.mergePass()
	return st.finish()
}

// canShare is the edge test of the static V1 graph: whether two
// operations on one module of the given delay can share an instance,
// given their start-time windows and their dependency relation. They can
// iff some pair of in-window starts executes them on disjoint cycle
// intervals in dependency-consistent order:
//
//   - if a must precede b (a path a -> b exists), sharing requires
//     b.Late >= a.Early + delay (b can start after a ends); the data
//     dependency itself already forces disjoint execution;
//   - if they are independent, sharing requires one of them to be able to
//     finish before the other starts in some window choice.
//
// aBeforeB / bBeforeA describe reachability (both false for independent
// operations; both true is impossible in a DAG).
func canShare(a, b sched.Window, delay int, aBeforeB, bBeforeA bool) bool {
	switch {
	case aBeforeB:
		return b.Late >= a.Early+delay
	case bBeforeA:
		return a.Late >= b.Early+delay
	default:
		return a.Early+delay <= b.Late || b.Early+delay <= a.Late
	}
}

// repairPack packs the partition into concrete start times, repairing
// deadline misses by eviction. The pairwise window test behind the
// partition is optimistic about cross-clique precedence, so a miss is
// repaired by evicting into its own instance the worst-deviating
// shareable ancestor of the violator — the node packed furthest beyond
// its static window — falling back to the violator itself when no
// ancestor deviates. Each eviction strictly grows the partition (an
// n-block partition of n nodes packs trivially or fails for good), so the
// loop terminates.
func repairPack(g *cdfg.Graph, st *state, windows []sched.Window, reach cdfg.Bitmat, partition clique.Partition) (clique.Partition, error) {
	n := g.N()
	for {
		violator, err := packPartition(g, st, windows, partition)
		if err == nil {
			return partition, nil
		}
		if violator < 0 {
			return nil, err
		}
		evict := -1
		for v := 0; v < n; v++ {
			if v != violator && !reach.Get(v, violator) {
				continue
			}
			if st.start[v] <= windows[v].Late {
				continue
			}
			if blockSize(partition, v) < 2 {
				continue
			}
			if evict < 0 || st.start[v]-windows[v].Late > st.start[evict]-windows[evict].Late {
				evict = v
			}
		}
		if evict < 0 {
			// No deviating shareable ancestor: fall back to the violator
			// itself, else give up.
			if blockSize(partition, violator) >= 2 {
				evict = violator
			} else {
				return nil, err
			}
		}
		partition = evictNode(partition, evict)
	}
}

// blockSize returns the size of the partition block containing v.
func blockSize(p clique.Partition, v int) int {
	for _, block := range p {
		for _, u := range block {
			if u == v {
				return len(block)
			}
		}
	}
	return 0
}

// evictNode moves v into a fresh singleton block.
func evictNode(p clique.Partition, v int) clique.Partition {
	for bi, block := range p {
		for k, u := range block {
			if u == v {
				// Copy before truncating: appending block[k+1:] onto
				// block[:k] would shift elements within the shared backing
				// array and corrupt any alias of the original block.
				nb := make([]int, 0, len(block)-1)
				nb = append(nb, block[:k]...)
				nb = append(nb, block[k+1:]...)
				p[bi] = nb
				return append(p, []int{v})
			}
		}
	}
	return p
}

// packable reports whether the clique's operations admit a sequential
// packing within their windows: processed in Early order, each op starts
// at max(own Early, previous end) and must not exceed its Late.
func packable(g *cdfg.Graph, st *state, windows []sched.Window, ops []int) bool {
	sorted := append([]int(nil), ops...)
	sort.Slice(sorted, func(i, j int) bool {
		if windows[sorted[i]].Early != windows[sorted[j]].Early {
			return windows[sorted[i]].Early < windows[sorted[j]].Early
		}
		return sorted[i] < sorted[j]
	})
	t := 0
	for _, v := range sorted {
		d := st.lib.Module(st.moduleOf[v]).Delay
		start := windows[v].Early
		if start < t {
			start = t
		}
		if start > windows[v].Late {
			return false
		}
		t = start + d
	}
	return true
}

// packPartition assigns concrete start times: a list schedule over the
// partition's instances under precedence, instance exclusivity and the
// power cap, then a deadline check. It accumulates the placements into
// the state's profile, cleared first, so fit checks the cap against it.
// On a deadline miss it returns the violating node (for the split repair)
// and an error; violator is -1 for non-repairable failures.
func packPartition(g *cdfg.Graph, st *state, windows []sched.Window, partition clique.Partition) (violator int, err error) {
	instanceOf := make([]int, g.N())
	for bi, block := range partition {
		for _, v := range block {
			instanceOf[v] = bi
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		return -1, err
	}
	// Critical-first among ready ops, mirroring pasap.
	prio := make([]int, g.N())
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		best := 0
		for _, v := range g.Succs(u) {
			if prio[v] > best {
				best = prio[v]
			}
		}
		prio[u] = best + st.lib.Module(st.moduleOf[u]).Delay
	}
	clear(st.profile)
	busyUntil := make([]int, len(partition))
	placed := make([]bool, g.N())
	remaining := g.N()
	indeg := make([]int, g.N())
	for i := 0; i < g.N(); i++ {
		indeg[i] = len(g.Preds(cdfg.NodeID(i)))
	}
	for remaining > 0 {
		// Pick the highest-priority ready op.
		pick := -1
		for i := 0; i < g.N(); i++ {
			if placed[i] || indeg[i] > 0 {
				continue
			}
			if pick < 0 || prio[i] > prio[pick] {
				pick = i
			}
		}
		if pick < 0 {
			return -1, fmt.Errorf("core: clique mode: no ready operation (internal error)")
		}
		m := st.lib.Module(st.moduleOf[pick])
		earliest := 0
		for _, p := range g.Preds(cdfg.NodeID(pick)) {
			if e := st.start[p] + st.lib.Module(st.moduleOf[p]).Delay; e > earliest {
				earliest = e
			}
		}
		if b := busyUntil[instanceOf[pick]]; b > earliest {
			earliest = b
		}
		start, ok := st.fit(cdfg.NodeID(pick), nil, earliest, st.cons.Deadline, m.Delay, m.Power, false)
		if !ok {
			return pick, fmt.Errorf("core: clique mode: %q does not fit by T=%d: %w",
				g.Node(cdfg.NodeID(pick)).Name, st.cons.Deadline, ErrInfeasible)
		}
		st.start[pick] = start
		for c := start; c < start+m.Delay; c++ {
			st.profile[c] += m.Power
		}
		busyUntil[instanceOf[pick]] = start + m.Delay
		placed[pick] = true
		remaining--
		for _, v := range g.Succs(cdfg.NodeID(pick)) {
			indeg[v]--
		}
	}
	return -1, nil
}
