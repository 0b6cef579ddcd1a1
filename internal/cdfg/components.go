package cdfg

import "sort"

// Components returns the weakly-connected components of the graph: the
// node sets that are mutually reachable when every edge is treated as
// undirected. Each component's members are sorted ascending by ID and the
// components themselves are ordered by their smallest member, so the
// result is deterministic regardless of insertion history. An empty graph
// yields no components.
//
// Weak connectivity is the zero-cut decomposition boundary of hierarchical
// synthesis: two operations in different weak components share no data
// dependency, directly or transitively, so their schedules interact only
// through the shared power budget (which the acceptance walk of the
// partition driver enforces) and the shared functional units (which the
// stitching pass reconciles).
func (g *Graph) Components() [][]NodeID {
	n := len(g.nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var out [][]NodeID
	var stack []NodeID
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		c := len(out)
		comp[i] = c
		stack = append(stack[:0], NodeID(i))
		members := []NodeID{NodeID(i)}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, adj := range [2][]NodeID{g.succs[u], g.preds[u]} {
				for _, v := range adj {
					if comp[v] < 0 {
						comp[v] = c
						stack = append(stack, v)
						members = append(members, v)
					}
				}
			}
		}
		sort.Slice(members, func(a, b int) bool { return members[a] < members[b] })
		out = append(out, members)
	}
	return out
}
