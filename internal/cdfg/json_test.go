package cdfg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func testGraph(t *testing.T) *Graph {
	t.Helper()
	g := New("t")
	a := g.MustAddNode("a", Input)
	b := g.MustAddNode("b", Input)
	m := g.MustAddNode("m", Mul)
	o := g.MustAddNode("o", Output)
	g.MustAddEdge(a, m)
	g.MustAddEdge(b, m)
	g.MustAddEdge(m, o)
	return g
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := testGraph(t)
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Text() != g.Text() {
		t.Fatalf("round trip changed the graph:\n%s\nvs\n%s", got.Text(), g.Text())
	}
	// Canonical: re-marshaling the round-tripped graph is byte-identical.
	raw2, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatalf("marshal not canonical:\n%s\nvs\n%s", raw, raw2)
	}
}

func TestGraphJSONRejects(t *testing.T) {
	cases := []struct {
		name, payload, want string
	}{
		{"syntax", `{`, "unexpected end of JSON input"},
		{"unknown op", `{"nodes":[{"name":"a","op":"frobnicate"}],"edges":[]}`, "unknown operation"},
		{"empty node name", `{"nodes":[{"name":"","op":"+"}],"edges":[]}`, "empty node name"},
		{"duplicate node", `{"nodes":[{"name":"a","op":"imp"},{"name":"a","op":"imp"}],"edges":[]}`, "duplicate node name"},
		{"unknown edge source", `{"nodes":[{"name":"a","op":"imp"}],"edges":[{"from":"zz","to":"a"}]}`, "unknown node"},
		{"unknown edge target", `{"nodes":[{"name":"a","op":"imp"}],"edges":[{"from":"a","to":"zz"}]}`, "unknown node"},
		{"self loop", `{"nodes":[{"name":"a","op":"+"}],"edges":[{"from":"a","to":"a"}]}`, "self-loop"},
		{"duplicate edge", `{"nodes":[{"name":"a","op":"imp"},{"name":"b","op":"xpt"}],"edges":[{"from":"a","to":"b"},{"from":"a","to":"b"}]}`, "duplicate edge"},
		{"cycle", `{"nodes":[{"name":"a","op":"+"},{"name":"b","op":"+"}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"}]}`, "cycle"},
		{"input with preds", `{"nodes":[{"name":"a","op":"imp"},{"name":"b","op":"imp"}],"edges":[{"from":"a","to":"b"}]}`, "fan-in"},
		{"fan-in overflow", `{"nodes":[{"name":"a","op":"imp"},{"name":"b","op":"imp"},{"name":"c","op":"imp"},{"name":"d","op":"+"}],"edges":[{"from":"a","to":"d"},{"from":"b","to":"d"},{"from":"c","to":"d"}]}`, "fan-in"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseJSON([]byte(tc.payload))
			if err == nil {
				t.Fatalf("ParseJSON(%s) succeeded, want error containing %q", tc.payload, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestGraphUnmarshalErrorLeavesReceiver(t *testing.T) {
	g := testGraph(t)
	before := g.Text()
	if err := json.Unmarshal([]byte(`{"nodes":[{"name":"x","op":"??"}],"edges":[]}`), g); err == nil {
		t.Fatal("want error")
	}
	if g.Text() != before {
		t.Fatal("failed unmarshal mutated the receiver")
	}
}

func TestGraphJSONTextAgreement(t *testing.T) {
	// The JSON and text formats describe the same graph.
	g := testGraph(t)
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ParseJSON(raw)
	if err != nil {
		t.Fatal(err)
	}
	fromText, err := ParseString(g.Text())
	if err != nil {
		t.Fatal(err)
	}
	if fromJSON.Text() != fromText.Text() {
		t.Fatal("JSON and text round trips disagree")
	}
}

// sameOrders reports whether two graphs have the same nodes and the same
// successor and predecessor lists, order included.
func sameOrders(a, b *Graph) bool {
	if a.Text() != b.Text() {
		return false
	}
	for i := range a.nodes {
		for _, l := range [][2][]NodeID{{a.succs[i], b.succs[i]}, {a.preds[i], b.preds[i]}} {
			if len(l[0]) != len(l[1]) {
				return false
			}
			for j := range l[0] {
				if l[0][j] != l[1][j] {
					return false
				}
			}
		}
	}
	return true
}

// TestGraphExactJSON: MarshalJSON decodes back to the very graph,
// operand order included, for edges added in any order and for a chain
// listed against its ID order; for a graph built source by source it
// lists the edges in (source ID, declaration) order.
func TestGraphExactJSON(t *testing.T) {
	g := testGraph(t)
	raw, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	const sourceOrder = `"edges":[{"from":"a","to":"m"},{"from":"b","to":"m"},{"from":"m","to":"o"}]`
	if !strings.Contains(string(raw), sourceOrder) {
		t.Fatalf("source-ordered graph: MarshalJSON %s, want edges %s", raw, sourceOrder)
	}

	// A random DAG whose edges are added in a shuffled order.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		g := New("shuffled")
		const inputs, n = 3, 12
		for i := 0; i < n; i++ {
			op := Add
			if i < inputs {
				op = Input
			}
			g.MustAddNode(fmt.Sprintf("n%d", i), op)
		}
		var edges [][2]NodeID
		for v := inputs; v < n; v++ {
			for _, u := range rng.Perm(v)[:1+rng.Intn(2)] {
				edges = append(edges, [2]NodeID{NodeID(u), NodeID(v)})
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		for _, e := range edges {
			g.MustAddEdge(e[0], e[1])
		}
		raw, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		back, err := ParseJSON(raw)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sameOrders(g, back) {
			t.Fatalf("trial %d: MarshalJSON does not decode back to the graph:\n%s", trial, raw)
		}
	}

	// A chain whose IDs fall along it: input u_i feeds v_{i-1}, then v_i,
	// and v_i's operands are u_i, then u_{i+1}. Listing the edges in ID
	// order admits one of them at a time.
	const k = 500
	g = New("chain")
	us, vs := make([]NodeID, k+1), make([]NodeID, k)
	for i := k; i >= 0; i-- {
		if i < k {
			vs[i] = g.MustAddNode(fmt.Sprintf("v%d", i), Add)
		}
		us[i] = g.MustAddNode(fmt.Sprintf("u%d", i), Input)
	}
	for i := 0; i < k; i++ {
		g.MustAddEdge(us[i], vs[i])
		g.MustAddEdge(us[i+1], vs[i])
	}
	raw, err = json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := ParseJSON(raw); err != nil || !sameOrders(g, back) {
		t.Fatalf("reversed chain: MarshalJSON does not decode back to the graph (%v)", err)
	}

	// m's operands are b, then a: against ID order, and kept.
	g = New("operands")
	a := g.MustAddNode("a", Input)
	b := g.MustAddNode("b", Input)
	m := g.MustAddNode("m", Mul)
	g.MustAddEdge(b, m)
	g.MustAddEdge(a, m)
	raw, err = json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := ParseJSON(raw); err != nil || !sameOrders(g, back) {
		t.Fatalf("operands against ID order: MarshalJSON does not keep them (%v):\n%s", err, raw)
	}
}
