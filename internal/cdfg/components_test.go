package cdfg

import (
	"reflect"
	"testing"
)

// chainPair builds two disjoint chains a0->a1->a2 and b0->b1, interleaving
// insertion order so component membership is not an artifact of ID ranges.
func chainPair(t *testing.T) *Graph {
	t.Helper()
	g := New("pair")
	a0 := g.MustAddNode("a0", Input)
	b0 := g.MustAddNode("b0", Input)
	a1 := g.MustAddNode("a1", Add)
	b1 := g.MustAddNode("b1", Output)
	a2 := g.MustAddNode("a2", Output)
	g.MustAddEdge(a0, a1)
	g.MustAddEdge(b0, b1)
	g.MustAddEdge(a1, a2)
	return g
}

func TestComponentsDisjointChains(t *testing.T) {
	g := chainPair(t)
	got := g.Components()
	want := [][]NodeID{{0, 2, 4}, {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Components() = %v, want %v", got, want)
	}
}

func TestComponentsSingle(t *testing.T) {
	g := New("one")
	in := g.MustAddNode("in", Input)
	add := g.MustAddNode("add", Add)
	out := g.MustAddNode("out", Output)
	g.MustAddEdge(in, add)
	g.MustAddEdge(add, out)
	got := g.Components()
	if len(got) != 1 || !reflect.DeepEqual(got[0], []NodeID{0, 1, 2}) {
		t.Fatalf("Components() = %v, want one full component", got)
	}
}

func TestComponentsEmpty(t *testing.T) {
	if got := New("empty").Components(); len(got) != 0 {
		t.Fatalf("Components() of empty graph = %v", got)
	}
}

// Weak connectivity must follow edges both ways: a node reachable only
// via a predecessor link still joins the component.
func TestComponentsFollowsPreds(t *testing.T) {
	g := New("vee")
	x := g.MustAddNode("x", Input)
	y := g.MustAddNode("y", Input)
	m := g.MustAddNode("m", Add)
	o := g.MustAddNode("o", Output)
	g.MustAddEdge(x, m)
	g.MustAddEdge(y, m)
	g.MustAddEdge(m, o)
	got := g.Components()
	if len(got) != 1 || len(got[0]) != 4 {
		t.Fatalf("Components() = %v, want one 4-node component", got)
	}
}

func TestSubgraphRoundTrip(t *testing.T) {
	g := chainPair(t)
	for ci, ids := range g.Components() {
		sub, err := g.InducedSubgraph("sub", ids)
		if err != nil {
			t.Fatalf("InducedSubgraph(%v): %v", ids, err)
		}
		if err := sub.Validate(); err != nil {
			t.Fatalf("component %d subgraph invalid: %v", ci, err)
		}
		if sub.N() != len(ids) {
			t.Fatalf("component %d: %d nodes, want %d", ci, sub.N(), len(ids))
		}
		for li, old := range ids {
			want := g.Node(old)
			got := sub.Node(NodeID(li))
			if got.Name != want.Name || got.Op != want.Op {
				t.Fatalf("component %d node %d: got %q/%v, want %q/%v", ci, li, got.Name, got.Op, want.Name, want.Op)
			}
			// Every parent edge between members must exist locally.
			for _, s := range g.Succs(old) {
				found := false
				for _, ls := range sub.Succs(NodeID(li)) {
					if sub.Node(ls).Name == g.Node(s).Name {
						found = true
					}
				}
				if !found {
					t.Fatalf("edge %q->%q missing from subgraph", want.Name, g.Node(s).Name)
				}
			}
		}
	}
}
