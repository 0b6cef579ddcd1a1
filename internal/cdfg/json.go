package cdfg

import (
	"encoding/json"
	"fmt"
)

// The JSON schema of a graph mirrors the .cdfg text format: nodes carry a
// unique name and an operation token, edges reference nodes by name. The
// schema is the request-payload format of the synthesis service, so
// decoding is strict about structural validity: unknown operation tokens,
// dangling edge endpoints, duplicate names and cyclic graphs are all
// rejected with descriptive errors instead of panicking downstream.
//
//	{
//	  "name": "hal",
//	  "nodes": [{"name": "u1", "op": "*"}, ...],
//	  "edges": [{"from": "u1", "to": "u2"}, ...]
//	}

type graphJSON struct {
	Name  string     `json:"name,omitempty"`
	Nodes []nodeJSON `json:"nodes"`
	Edges []edgeJSON `json:"edges"`
}

type nodeJSON struct {
	Name string `json:"name"`
	Op   string `json:"op"`
}

type edgeJSON struct {
	From string `json:"from"`
	To   string `json:"to"`
}

// MarshalJSON serializes the graph in the JSON schema above, in an order
// that decodes back to this very graph: nodes in ID order, and the edges
// so that every node's predecessors (its operand order, which synthesis
// reads) and successors come back in the graph's own order. Where
// (source ID, declaration) order already rebuilds the graph, as for a
// graph built source by source, the edges are listed in it. The output
// is canonical: two graphs with the same nodes and the same ordered
// adjacency marshal to identical bytes.
func (g *Graph) MarshalJSON() ([]byte, error) {
	out := graphJSON{
		Name:  g.Name,
		Nodes: make([]nodeJSON, 0, len(g.nodes)),
		Edges: make([]edgeJSON, 0, g.E()),
	}
	for _, n := range g.nodes {
		out.Nodes = append(out.Nodes, nodeJSON{Name: n.Name, Op: n.Op.String()})
	}
	// An edge u -> v can be listed once the edges before it in u's
	// successor list and in v's predecessor list are. The graph's own
	// AddEdge sequence meets both, so some such sequence exists. Sources
	// are tried in ID order, and a source again whenever the edge it waits
	// on in v's predecessor list comes up, so each edge is tried a bounded
	// number of times.
	next := make([]int, len(g.nodes)) // successors of u listed so far
	fed := make([]int, len(g.nodes))  // predecessors of v listed so far
	queue := make([]NodeID, len(g.nodes))
	for i := range queue {
		queue[i] = NodeID(i)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for ; next[u] < len(g.succs[u]); next[u]++ {
			v := g.succs[u][next[u]]
			if g.preds[v][fed[v]] != u {
				break
			}
			fed[v]++
			out.Edges = append(out.Edges, edgeJSON{From: g.nodes[u].Name, To: g.nodes[v].Name})
			if fed[v] < len(g.preds[v]) {
				queue = append(queue, g.preds[v][fed[v]])
			}
		}
	}
	if len(out.Edges) < g.E() {
		return nil, fmt.Errorf("cdfg: graph %q: successor and predecessor orders admit no edge sequence", g.Name)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes and validates a graph from the JSON schema above.
// On success the receiver is replaced wholesale; on error it is left
// unchanged. Beyond syntax, the decoded graph must pass the same
// structural validation as parsed text graphs: valid operation tokens,
// unique non-empty node names, known edge endpoints, no duplicate edges or
// self-loops, acyclicity, and per-operation fan-in bounds.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var raw graphJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return fmt.Errorf("cdfg: decoding graph JSON: %w", err)
	}
	ng := New(raw.Name)
	for i, n := range raw.Nodes {
		op, err := ParseOp(n.Op)
		if err != nil {
			return fmt.Errorf("cdfg: node %d (%q): %w", i, n.Name, err)
		}
		if _, err := ng.AddNode(n.Name, op); err != nil {
			return fmt.Errorf("cdfg: node %d: %w", i, err)
		}
	}
	for i, e := range raw.Edges {
		u, ok := ng.byName[e.From]
		if !ok {
			return fmt.Errorf("cdfg: edge %d: source is %w %q", i, ErrUnknownNode, e.From)
		}
		v, ok := ng.byName[e.To]
		if !ok {
			return fmt.Errorf("cdfg: edge %d: target is %w %q", i, ErrUnknownNode, e.To)
		}
		if err := ng.AddEdge(u, v); err != nil {
			return fmt.Errorf("cdfg: edge %d: %w", i, err)
		}
	}
	if err := ng.Validate(); err != nil {
		return err
	}
	*g = *ng
	return nil
}

// ParseJSON decodes and validates a graph from its JSON serialization.
func ParseJSON(data []byte) (*Graph, error) {
	g := New("")
	if err := json.Unmarshal(data, g); err != nil {
		return nil, err
	}
	return g, nil
}
