package rtl

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/gen"
	"pchls/internal/library"
)

// randomInputs assigns a deterministic pseudo-random value to every Input
// node, keyed by name.
func randomInputs(g *cdfg.Graph, rng *rand.Rand) map[string]int64 {
	in := make(map[string]int64)
	for _, n := range g.Nodes() {
		if n.Op == cdfg.Input {
			in[n.Name] = int64(rng.Intn(200) - 100)
		}
	}
	return in
}

// synthAndGenerate synthesizes and builds the FSMD.
func synthAndGenerate(t *testing.T, g *cdfg.Graph, T int, P float64) *Module {
	t.Helper()
	d, err := core.Synthesize(g, library.Table1(), core.Constraints{Deadline: T, PowerMax: P}, core.Config{})
	if err != nil {
		t.Fatalf("synthesize %s: %v", g.Name, err)
	}
	m, err := Generate(d.Graph, d.Schedule, d.Datapath, d.FUOf, 32)
	if err != nil {
		t.Fatalf("generate %s: %v", g.Name, err)
	}
	return m
}

func TestSimulateMatchesEvalOnBenchmarks(t *testing.T) {
	cases := []struct {
		name string
		T    int
		P    float64
	}{
		{"hal", 10, 20}, {"hal", 17, 8},
		{"cosine", 15, 30}, {"elliptic", 22, 15},
		{"fir16", 30, 0}, {"ar", 40, 12}, {"diffeq2", 30, 15},
	}
	rng := rand.New(rand.NewSource(42))
	for _, tc := range cases {
		g, err := bench.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		m := synthAndGenerate(t, g, tc.T, tc.P)
		for trial := 0; trial < 5; trial++ {
			if err := Verify(m, randomInputs(g, rng)); err != nil {
				t.Fatalf("%s T=%d P=%g trial %d: %v", tc.name, tc.T, tc.P, trial, err)
			}
		}
	}
}

func TestSimulateTinyPipelineExactValues(t *testing.T) {
	// i1=7, i2=5 -> m = 7*5 = 35; a = 35 + i3(4) = 39 -> o.
	g := cdfg.New("tiny")
	i1 := g.MustAddNode("i1", cdfg.Input)
	i2 := g.MustAddNode("i2", cdfg.Input)
	i3 := g.MustAddNode("i3", cdfg.Input)
	mul := g.MustAddNode("m", cdfg.Mul)
	add := g.MustAddNode("a", cdfg.Add)
	out := g.MustAddNode("o", cdfg.Output)
	g.MustAddEdge(i1, mul)
	g.MustAddEdge(i2, mul)
	g.MustAddEdge(mul, add)
	g.MustAddEdge(i3, add)
	g.MustAddEdge(add, out)
	m := synthAndGenerate(t, g, 8, 0)
	got, err := Simulate(m, map[string]int64{"i1": 7, "i2": 5, "i3": 4})
	if err != nil {
		t.Fatal(err)
	}
	if got["o"] != 39 {
		t.Fatalf("o = %d, want 39", got["o"])
	}
}

func TestSimulateSingleOperandIdentity(t *testing.T) {
	// A single-operand multiply behaves as *1 (identity), matching Eval.
	g := cdfg.New("ident")
	i := g.MustAddNode("i", cdfg.Input)
	mul := g.MustAddNode("m", cdfg.Mul)
	sub := g.MustAddNode("s", cdfg.Sub)
	out := g.MustAddNode("o", cdfg.Output)
	g.MustAddEdge(i, mul)
	g.MustAddEdge(mul, sub)
	g.MustAddEdge(sub, out)
	m := synthAndGenerate(t, g, 10, 0)
	got, err := Simulate(m, map[string]int64{"i": 9})
	if err != nil {
		t.Fatal(err)
	}
	// m = 9*1 = 9; s = 9-0 = 9.
	if got["o"] != 9 {
		t.Fatalf("o = %d, want 9", got["o"])
	}
	if err := Verify(m, map[string]int64{"i": -3}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateMissingInput(t *testing.T) {
	g, _ := bench.ByName("hal")
	m := synthAndGenerate(t, g, 17, 0)
	if _, err := Simulate(m, map[string]int64{"x": 1}); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if err := Verify(m, map[string]int64{"x": 1}); err == nil {
		t.Fatal("Verify with missing inputs succeeded")
	}
}

func TestQuickSynthesisIsFunctionallyCorrect(t *testing.T) {
	// The flagship end-to-end property: for random graphs, random
	// constraints and random inputs, the synthesized FSMD computes exactly
	// what the data-flow graph computes.
	lib := library.Table1()
	f := func(seed int64, szRaw, slackRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.Graph(seed, gen.GraphConfig{Nodes: int(szRaw%12) + 2, MaxWidth: 3})
		cp, _ := g.CriticalPath(func(n cdfg.Node) int {
			if n.Op == cdfg.Mul {
				return 4
			}
			return 1
		})
		T := cp + int(slackRaw%6)
		d, err := core.Synthesize(g, lib, core.Constraints{Deadline: T}, core.Config{})
		if err != nil {
			return true // heuristic infeasibility is allowed; nothing to verify
		}
		m, err := Generate(d.Graph, d.Schedule, d.Datapath, d.FUOf, 32)
		if err != nil {
			return false
		}
		for trial := 0; trial < 3; trial++ {
			if err := Verify(m, randomInputs(g, rng)); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVerilogLatchesConstantOperands(t *testing.T) {
	g := cdfg.New("const")
	i := g.MustAddNode("i", cdfg.Input)
	mul := g.MustAddNode("m", cdfg.Mul)
	out := g.MustAddNode("o", cdfg.Output)
	g.MustAddEdge(i, mul)
	g.MustAddEdge(mul, out)
	m := synthAndGenerate(t, g, 8, 0)
	v := m.Verilog()
	// The multiply's missing operand renders as its identity element 1
	// (either latched for a multi-cycle unit or read inline).
	if !strings.Contains(v, "<= 1; // m operand 1") && !strings.Contains(v, "* 1; // ") && !strings.Contains(v, " * 1") {
		t.Fatalf("verilog does not substitute the identity for the constant operand:\n%s", v)
	}
}
