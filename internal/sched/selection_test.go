package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
)

func TestPASAPSelectionPoliciesBothValid(t *testing.T) {
	g := bench.Cosine()
	bind := UniformFastest(library.Table1())
	for _, sel := range []Selection{CriticalFirst, SmallestID} {
		s, err := PASAP(g, bind, Options{PowerMax: 40, Select: sel})
		if err != nil {
			t.Fatalf("selection %d: %v", sel, err)
		}
		if err := s.Validate(40, 0); err != nil {
			t.Fatalf("selection %d: %v", sel, err)
		}
	}
}

func TestPASAPSelectionIrrelevantWithoutPower(t *testing.T) {
	// Unconstrained, both policies must produce exactly ASAP.
	g := bench.Elliptic()
	bind := UniformFastest(library.Table1())
	a, err := PASAP(g, bind, Options{Select: CriticalFirst})
	if err != nil {
		t.Fatal(err)
	}
	b, err := PASAP(g, bind, Options{Select: SmallestID})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Start {
		if a.Start[i] != b.Start[i] {
			t.Fatalf("node %d: critical-first %d vs smallest-id %d (unconstrained)", i, a.Start[i], b.Start[i])
		}
	}
}

func TestPASAPCriticalFirstNoWorseOnCosine(t *testing.T) {
	// The motivating case for critical-first selection: under a moderate
	// power cap on the multiply-rich cosine graph, a plain topological
	// sweep starves the critical path. Critical-first must produce a
	// schedule at most as long.
	g := bench.Cosine()
	bind := UniformFastest(library.Table1())
	crit, err := PASAP(g, bind, Options{PowerMax: 40, Select: CriticalFirst})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := PASAP(g, bind, Options{PowerMax: 40, Select: SmallestID})
	if err != nil {
		t.Fatal(err)
	}
	if crit.Length() > plain.Length() {
		t.Fatalf("critical-first %d cycles, smallest-id %d cycles", crit.Length(), plain.Length())
	}
}

func TestPALAPPropagatesSelection(t *testing.T) {
	g := bench.HAL()
	bind := UniformFastest(library.Table1())
	for _, sel := range []Selection{CriticalFirst, SmallestID} {
		s, err := PALAP(g, bind, 20, Options{PowerMax: 12, Select: sel})
		if err != nil {
			t.Fatalf("selection %d: %v", sel, err)
		}
		if err := s.Validate(12, 20); err != nil {
			t.Fatalf("selection %d: %v", sel, err)
		}
	}
}

// chainGraph returns the path n-1 -> ... -> 1 -> 0: every edge runs from a
// higher node ID to a lower one, against the ID tie-break.
func chainGraph(n int) *cdfg.Graph {
	g := cdfg.New(fmt.Sprintf("chain%d", n))
	for i := 0; i < n; i++ {
		g.MustAddNode(fmt.Sprintf("a%d", i), cdfg.Add)
	}
	for i := n - 1; i > 0; i-- {
		g.MustAddEdge(cdfg.NodeID(i), cdfg.NodeID(i-1))
	}
	return g
}

// TestCriticalFirstOrderIsTopological checks the order on elliptic and on
// chains whose Delays tables hold a zero delay. A zero-delay node would
// tie with its successor if delays were summed as given, and the ID
// tie-break would then place the successor first; priorities count every
// delay as at least 1, so the order stays topological and PASAP's schedule
// stays valid.
func TestCriticalFirstOrderIsTopological(t *testing.T) {
	bind := UniformFastest(library.Table1())
	cases := []struct {
		name   string
		g      *cdfg.Graph
		delays []int
	}{
		{"elliptic", bench.Elliptic(), nil},
		{"chain2-delays{1,0}", chainGraph(2), []int{1, 0}},
		{"chain3-delays{1,0,1}", chainGraph(3), []int{1, 0, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := c.g
			var opts *Options
			if c.delays != nil {
				opts = &Options{PowerMax: 1, Delays: c.delays, Powers: make([]float64, g.N())}
				for i := range opts.Powers {
					opts.Powers[i] = 1
				}
			}
			order, err := criticalFirstOrder(g, bind, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			pos := make(map[cdfg.NodeID]int, len(order))
			for i, id := range order {
				pos[id] = i
			}
			if len(pos) != g.N() {
				t.Fatalf("order %v covers %d of %d nodes", order, len(pos), g.N())
			}
			for _, n := range g.Nodes() {
				for _, v := range g.Succs(n.ID) {
					if pos[n.ID] >= pos[v] {
						t.Fatalf("order %v: edge %d->%d violates order", order, n.ID, v)
					}
				}
			}
			if opts == nil {
				return
			}
			s, err := PASAP(g, bind, *opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Validate(opts.PowerMax, 0); err != nil {
				t.Fatalf("PASAP starts %v: %v", s.Start, err)
			}
		})
	}
}

// criticalFirstOrderRef is the reference selection: at every step it scans
// the whole ready list for the node with the longest delay-weighted path
// to a sink, ties to the smallest ID. criticalFirstOrder must reproduce
// its sequence exactly.
func criticalFirstOrderRef(g *cdfg.Graph, bind Binding, opts *Options) ([]cdfg.NodeID, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.N()
	prio := make([]int, n)
	for i := len(topo) - 1; i >= 0; i-- {
		u := topo[i]
		best := 0
		for _, v := range g.Succs(u) {
			best = max(best, prio[v])
		}
		if opts != nil && opts.Delays != nil {
			prio[u] = best + opts.Delays[u]
		} else {
			prio[u] = best + bind(g.Node(u)).Delay
		}
	}
	indeg := make([]int, n)
	var ready []cdfg.NodeID
	for i := range indeg {
		indeg[i] = len(g.Preds(cdfg.NodeID(i)))
		if indeg[i] == 0 {
			ready = append(ready, cdfg.NodeID(i))
		}
	}
	order := make([]cdfg.NodeID, 0, n)
	for len(ready) > 0 {
		bi := 0
		for k := 1; k < len(ready); k++ {
			x, b := ready[k], ready[bi]
			if prio[x] > prio[b] || (prio[x] == prio[b] && x < b) {
				bi = k
			}
		}
		u := ready[bi]
		ready[bi] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, u)
		for _, v := range g.Succs(u) {
			indeg[v]--
			if indeg[v] == 0 {
				ready = append(ready, v)
			}
		}
	}
	return order, nil
}

// namedGraph is a test graph with its subtest name.
type namedGraph struct {
	name string
	g    *cdfg.Graph
}

// presetGraph returns the seeded gen graph of preset p at n nodes.
func presetGraph(tb testing.TB, p gen.Preset, n int, connect bool) *cdfg.Graph {
	cfg, err := gen.PresetConfig(p, n)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Connect = connect
	return gen.Graph(int64(n)+7, cfg)
}

// selectionGraphs returns elliptic plus the generated layered, blocks and
// mixed shapes at n in {30, 300, 1000}, each with and without Connect.
func selectionGraphs(tb testing.TB) []namedGraph {
	graphs := []namedGraph{{"elliptic", bench.Elliptic()}}
	for _, p := range []gen.Preset{gen.PresetLayered, gen.PresetBlocks, gen.PresetMixed} {
		for _, n := range []int{30, 300, 1000} {
			for _, connect := range []bool{false, true} {
				graphs = append(graphs, namedGraph{fmt.Sprintf("%s-n%d-connect=%v", p, n, connect), presetGraph(tb, p, n, connect)})
			}
		}
	}
	return graphs
}

// TestCriticalFirstOrderMatchesReference is the differential test of the
// counting sort against the linear scan of the ready list: forward and
// reversed graphs, with and without an arena. The delays come from four
// sources: the Table 1 binding; a table drawn from {1, 2}, so priority ties
// are dense; a table drawn from {1, ..., 8}, so the priority range (35 to
// 40 cycles) exceeds the 30 operations of the n=30 presets; and the
// nil-Delays binding path under a 3-level expanded library, at its fastest
// and at its lowest-power levels.
func TestCriticalFirstOrderMatchesReference(t *testing.T) {
	elib, err := gen.Library(1000, gen.LibraryConfig{Levels: 3}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	table1 := UniformFastest(library.Table1())
	for _, c := range selectionGraphs(t) {
		g := c.g
		t.Run(c.name, func(t *testing.T) {
			a := NewArena(g)
			rev := a.reverseOf(g)
			rng := rand.New(rand.NewSource(int64(g.N())))
			drawDelays := func(dmax int) *Options {
				delays := make([]int, g.N())
				for i := range delays {
					delays[i] = 1 + rng.Intn(dmax)
				}
				return &Options{Delays: delays}
			}
			inputs := []struct {
				name string
				bind Binding
				opts *Options
			}{
				{"table1", table1, nil},
				{"delays{1,2}", table1, drawDelays(2)},
				{"delays{1..8}", table1, drawDelays(8)},
				{"dvs-fastest", UniformFastest(elib), nil},
				{"dvs-lowest-power", UniformLowestPower(elib), nil},
			}
			for _, dir := range []namedGraph{{"forward", g}, {"reversed", rev}} {
				for _, in := range inputs {
					want, err := criticalFirstOrderRef(dir.g, in.bind, in.opts)
					if err != nil {
						t.Fatal(err)
					}
					// The arena runs twice: cold, then over its recycled scratch.
					for run, arena := range []*Arena{nil, a, a} {
						got, err := criticalFirstOrder(dir.g, in.bind, in.opts, arena)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							i := 0
							for i < len(got) && i < len(want) && got[i] == want[i] {
								i++
							}
							t.Fatalf("%s, %s, run %d: order diverges from the linear scan at position %d (len %d vs %d)",
								dir.name, in.name, run, i, len(got), len(want))
						}
					}
				}
			}
		})
	}
}
