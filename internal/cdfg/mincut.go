package cdfg

import "fmt"

// CutEdge is a directed edge u -> v of the parent graph whose endpoints were
// assigned to different parts by PartitionBalanced.
type CutEdge struct {
	U, V NodeID
}

// PartitionBalanced splits the graph's nodes into at most k balanced parts
// and returns, for every edge crossing two parts, the cut edge list. The
// partition is deterministic and maintains the invariant part(u) <= part(v)
// for every edge u -> v, so the quotient graph over parts is itself a DAG and
// the part order is a topological order of that quotient.
//
// The initial partition slices a topological order into k contiguous chunks
// of near-equal size; a bounded Kernighan-Lin-style refinement then moves
// nodes between adjacent parts when doing so strictly reduces the number of
// cut edges without breaking the quotient-DAG invariant or the balance
// tolerance. Optimality is not attempted — determinism and acyclicity are the
// contract. Parts are returned in quotient-topological order with member IDs
// ascending; empty parts are dropped, so fewer than k parts may come back.
// Cut edges are sorted by (U, V).
func (g *Graph) PartitionBalanced(k int) ([][]NodeID, []CutEdge, error) {
	n := g.N()
	if k > n {
		k = n
	}
	if k <= 1 || n == 0 {
		all := make([]NodeID, n)
		for i := range all {
			all[i] = NodeID(i)
		}
		if n == 0 {
			return nil, nil, nil
		}
		return [][]NodeID{all}, nil, nil
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, nil, fmt.Errorf("partition %q: %w", g.Name, err)
	}

	// Contiguous topological chunks: node at topo position p lands in part
	// p*k/n, which yields sizes differing by at most one. Every edge u -> v
	// has pos(u) < pos(v), so part(u) <= part(v) holds from the start.
	part := make([]int, n)
	size := make([]int, k)
	for p, id := range topo {
		part[id] = p * k / n
		size[part[id]]++
	}

	// Balance envelope for refinement: parts may not shrink below half nor
	// grow beyond twice the ideal size (and never to zero).
	ideal := n / k
	minSize := ideal / 2
	if minSize < 1 {
		minSize = 1
	}
	maxSize := 2 * ideal
	if maxSize < 2 {
		maxSize = 2
	}

	// legal reports whether moving id from part p to part q (q = p±1) keeps
	// the quotient acyclic, and gain counts the cut edges removed minus the
	// cut edges created by the move.
	tryMove := func(id NodeID) bool {
		p := part[id]
		// Forward move p -> p+1: every successor must already sit in a part
		// strictly after p; predecessors (all in parts <= p) stay legal.
		if q := p + 1; q < k && size[p]-1 >= minSize && size[q]+1 <= maxSize {
			legal, gain := true, 0
			for _, s := range g.succs[id] {
				if part[s] == p {
					legal = false
					break
				}
				if part[s] == q {
					gain++
				}
			}
			if legal {
				for _, pr := range g.preds[id] {
					if part[pr] == p {
						gain--
					}
				}
				if gain > 0 {
					part[id] = q
					size[p]--
					size[q]++
					return true
				}
			}
		}
		// Backward move p -> p-1: every predecessor must already sit strictly
		// before p; successors (all in parts >= p) stay legal.
		if q := p - 1; q >= 0 && size[p]-1 >= minSize && size[q]+1 <= maxSize {
			legal, gain := true, 0
			for _, pr := range g.preds[id] {
				if part[pr] == p {
					legal = false
					break
				}
				if part[pr] == q {
					gain++
				}
			}
			if legal {
				for _, s := range g.succs[id] {
					if part[s] == p {
						gain--
					}
				}
				if gain > 0 {
					part[id] = q
					size[p]--
					size[q]++
					return true
				}
			}
		}
		return false
	}

	const maxPasses = 4
	for pass := 0; pass < maxPasses; pass++ {
		moved := false
		for id := 0; id < n; id++ {
			if tryMove(NodeID(id)) {
				moved = true
			}
		}
		if !moved {
			break
		}
	}

	// Collect parts in label order (quotient-topological), dropping empties.
	remap := make([]int, k)
	nparts := 0
	for p := 0; p < k; p++ {
		if size[p] > 0 {
			remap[p] = nparts
			nparts++
		} else {
			remap[p] = -1
		}
	}
	parts := make([][]NodeID, nparts)
	for p := 0; p < k; p++ {
		if remap[p] >= 0 {
			parts[remap[p]] = make([]NodeID, 0, size[p])
		}
	}
	for id := 0; id < n; id++ {
		pp := remap[part[id]]
		parts[pp] = append(parts[pp], NodeID(id))
	}

	var cut []CutEdge
	for u := 0; u < n; u++ {
		for _, v := range g.succs[NodeID(u)] {
			if part[NodeID(u)] != part[v] {
				cut = append(cut, CutEdge{U: NodeID(u), V: v})
			}
		}
	}
	// succs slices follow insertion order; sort by (U, V) for a stable
	// contract independent of construction order.
	sortCutEdges(cut)
	return parts, cut, nil
}

func sortCutEdges(cut []CutEdge) {
	// Insertion sort: cut lists are short relative to the graph and usually
	// nearly sorted already (outer loop walks U ascending).
	for i := 1; i < len(cut); i++ {
		e := cut[i]
		j := i - 1
		for j >= 0 && (cut[j].U > e.U || (cut[j].U == e.U && cut[j].V > e.V)) {
			cut[j+1] = cut[j]
			j--
		}
		cut[j+1] = e
	}
}

// InducedSubgraph extracts the subgraph induced by ids: nodes keep their
// names and ops, edges with both endpoints inside the set are kept, and edges
// crossing the boundary are silently dropped. Local IDs follow the order of
// ids, and each node's edges are added in its successor order. The result
// may violate per-op fan-in minimums — computation nodes that lost all
// predecessors to the cut — so callers that need a Validate-clean graph must
// repair arity themselves (see core's ghost-input handling). A closed set,
// such as a weakly-connected component, loses no edge.
func (g *Graph) InducedSubgraph(name string, ids []NodeID) (*Graph, error) {
	sub := New(name)
	toLocal := make(map[NodeID]NodeID, len(ids))
	for _, id := range ids {
		if !g.valid(id) {
			return nil, fmt.Errorf("induced subgraph %q: unknown node id %d", name, id)
		}
		if _, dup := toLocal[id]; dup {
			return nil, fmt.Errorf("induced subgraph %q: duplicate node id %d", name, id)
		}
		lid, err := sub.AddNode(g.nodes[id].Name, g.nodes[id].Op)
		if err != nil {
			return nil, fmt.Errorf("induced subgraph %q: %w", name, err)
		}
		toLocal[id] = lid
	}
	for _, id := range ids {
		for _, s := range g.succs[id] {
			if ls, ok := toLocal[s]; ok {
				if err := sub.AddEdge(toLocal[id], ls); err != nil {
					return nil, fmt.Errorf("induced subgraph %q: %w", name, err)
				}
			}
		}
	}
	return sub, nil
}
