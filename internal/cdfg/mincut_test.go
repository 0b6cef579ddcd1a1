package cdfg

import (
	"reflect"
	"testing"
)

// partOf rebuilds the node -> part-index map from PartitionBalanced output.
func partOf(t *testing.T, g *Graph, parts [][]NodeID) []int {
	t.Helper()
	m := make([]int, g.N())
	for i := range m {
		m[i] = -1
	}
	for p, ids := range parts {
		for _, id := range ids {
			if m[id] != -1 {
				t.Fatalf("node %d in both part %d and part %d", id, m[id], p)
			}
			m[id] = p
		}
	}
	for id, p := range m {
		if p == -1 {
			t.Fatalf("node %d missing from every part", id)
		}
	}
	return m
}

// diamondChain builds a connected DAG shaped like the layered graphs the
// min-cut path targets: a chain prefix feeding a diamond.
//
//	0 -> 1 -> 2 -> {3,4} -> 5
func diamondChain(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	n0 := g.MustAddNode("in", Input)
	n1 := g.MustAddNode("a", Add)
	n2 := g.MustAddNode("b", Mul)
	n3 := g.MustAddNode("c", Add)
	n4 := g.MustAddNode("d", Sub)
	n5 := g.MustAddNode("out", Output)
	g.MustAddEdge(n0, n1)
	g.MustAddEdge(n1, n2)
	g.MustAddEdge(n2, n3)
	g.MustAddEdge(n2, n4)
	g.MustAddEdge(n3, n5)
	g.MustAddEdge(n4, n5)
	return g
}

func TestPartitionBalancedQuotientAcyclic(t *testing.T) {
	g := diamondChain(t)
	for k := 1; k <= g.N()+2; k++ {
		parts, cut, err := g.PartitionBalanced(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		m := partOf(t, g, parts)
		// Invariant: part(u) <= part(v) for every edge, so the quotient over
		// part indices is acyclic and part order is quotient-topological.
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Succs(NodeID(u)) {
				if m[u] > m[int(v)] {
					t.Fatalf("k=%d: edge %d->%d violates part order (%d > %d)", k, u, v, m[u], m[int(v)])
				}
			}
		}
		// Cut list must be exactly the cross-part edges, sorted by (U, V).
		var want []CutEdge
		for u := 0; u < g.N(); u++ {
			for _, v := range g.Succs(NodeID(u)) {
				if m[u] != m[int(v)] {
					want = append(want, CutEdge{NodeID(u), v})
				}
			}
		}
		sortCutEdges(want)
		if !reflect.DeepEqual(cut, want) {
			t.Fatalf("k=%d: cut = %v, want %v", k, cut, want)
		}
	}
}

func TestPartitionBalancedSingleNodeParts(t *testing.T) {
	g := diamondChain(t)
	// k >= n degenerates to one part per node; each must be a singleton and
	// every edge is a cut edge.
	parts, cut, err := g.PartitionBalanced(g.N() + 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != g.N() {
		t.Fatalf("got %d parts, want %d singletons", len(parts), g.N())
	}
	for p, ids := range parts {
		if len(ids) != 1 {
			t.Fatalf("part %d has %d members, want 1", p, len(ids))
		}
	}
	if len(cut) != g.E() {
		t.Fatalf("got %d cut edges, want all %d edges", len(cut), g.E())
	}
}

func TestPartitionBalancedTrivial(t *testing.T) {
	g := diamondChain(t)
	parts, cut, err := g.PartitionBalanced(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || len(parts[0]) != g.N() || len(cut) != 0 {
		t.Fatalf("k=1: parts=%v cut=%v, want one full part and no cut", parts, cut)
	}
	empty := New("empty")
	parts, cut, err = empty.PartitionBalanced(4)
	if err != nil || parts != nil || cut != nil {
		t.Fatalf("empty graph: parts=%v cut=%v err=%v", parts, cut, err)
	}
}

// TestPartitionBalancedRefinementInternalizesCut exercises the satellite edge
// case: edges that cross the initial contiguous chunking but whose endpoints
// land in the same part after KL refinement must not be reported as cut.
func TestPartitionBalancedRefinementInternalizesCut(t *testing.T) {
	// Topo order 0..5; the k=2 chunking splits {0,1,2} | {3,4,5}. Node 2 has
	// two successors in the second chunk and one predecessor in the first, so
	// refinement moves it forward (gain +1) and edges 2->3, 2->4 become
	// internal while 1->2 becomes the single cut edge.
	g := New("refine")
	for i, op := range []Op{Input, Add, Mul, Add, Sub, Output} {
		g.MustAddNode(string(rune('a'+i)), op)
	}
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(2, 4)
	g.MustAddEdge(3, 5)
	g.MustAddEdge(4, 5)
	parts, cut, err := g.PartitionBalanced(2)
	if err != nil {
		t.Fatal(err)
	}
	m := partOf(t, g, parts)
	if m[2] != m[3] || m[2] != m[4] {
		t.Fatalf("refinement should co-locate node 2 with its successors: parts=%v", parts)
	}
	want := []CutEdge{{1, 2}}
	if !reflect.DeepEqual(cut, want) {
		t.Fatalf("cut = %v, want %v", cut, want)
	}
}

func TestPartitionBalancedDeterministic(t *testing.T) {
	g := diamondChain(t)
	p1, c1, err := g.PartitionBalanced(3)
	if err != nil {
		t.Fatal(err)
	}
	p2, c2, err := g.Clone().PartitionBalanced(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(c1, c2) {
		t.Fatalf("partition not deterministic: %v/%v vs %v/%v", p1, c1, p2, c2)
	}
}

func TestInducedSubgraphDropsBoundaryEdges(t *testing.T) {
	g := diamondChain(t)
	// {2,3,4}: in-edge 1->2 and out-edges 3->5, 4->5 cross the boundary.
	sub, err := g.InducedSubgraph("mid", []NodeID{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 3 || sub.E() != 2 {
		t.Fatalf("got %d nodes / %d edges, want 3 / 2", sub.N(), sub.E())
	}
	// Local IDs follow the input order: 2->0, 3->1, 4->2.
	if got := sub.Succs(0); !reflect.DeepEqual(got, []NodeID{1, 2}) {
		t.Fatalf("local succs of node 0 = %v, want [1 2]", got)
	}
	// Node 2 (global 4, op Sub) lost its predecessor: arity repair is the
	// caller's job, so Validate on the raw induced subgraph fails.
	if err := sub.Validate(); err == nil {
		t.Fatal("induced subgraph with orphaned computation should fail Validate")
	}
}

func TestInducedSubgraphRejectsBadIDs(t *testing.T) {
	g := diamondChain(t)
	if _, err := g.InducedSubgraph("bad", []NodeID{0, 99}); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := g.InducedSubgraph("dup", []NodeID{1, 1}); err == nil {
		t.Fatal("duplicate id accepted")
	}
}
