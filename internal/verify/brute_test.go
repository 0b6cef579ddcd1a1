package verify_test

import (
	"errors"
	"math"
	"testing"

	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/verify"
)

// tinyInstance derives a small random synthesis problem sized for the
// exhaustive oracle: nodes computation operations plus their transfers.
func tinyInstance(seed int64, nodes int, slackMin, slackMax float64) gen.Instance {
	return gen.NewInstance(seed, gen.InstanceConfig{
		Graph:          gen.GraphConfig{Nodes: nodes, MaxWidth: 2},
		Library:        gen.LibraryConfig{ModulesPerOp: 2, DelayMax: 2},
		SlackMin:       slackMin,
		SlackMax:       slackMax,
		PowerFactorMin: 1.0,
		PowerFactorMax: 2.5,
	})
}

// bruteInput reconstructs a validator Input from a brute-force solution,
// so the oracle's own answers are checked against the same invariants as
// the engine's.
func bruteInput(inst gen.Instance, br *verify.BruteResult) verify.Input {
	n := inst.Graph.N()
	modules := make([]string, n)
	fuCount := 0
	for _, f := range br.FU {
		if f+1 > fuCount {
			fuCount = f + 1
		}
	}
	fuModules := make([]string, fuCount)
	for v := 0; v < n; v++ {
		name := inst.Library.Module(br.Module[v]).Name
		modules[v] = name
		fuModules[br.FU[v]] = name
	}
	return verify.Input{
		Graph:          inst.Graph,
		Library:        inst.Library,
		Deadline:       inst.Deadline,
		PowerMax:       inst.PowerMax,
		Start:          br.Start,
		Module:         modules,
		FU:             br.FU,
		FUModules:      fuModules,
		ReportedFUArea: br.FUArea,
	}
}

// TestBruteDifferentialVsHeuristic runs the heuristic engine and the
// exhaustive reference synthesizer on the same tiny instances and
// cross-checks them:
//
//   - the feasibility verdicts must agree,
//   - the heuristic must never beat the provably optimal area,
//   - the oracle's own solution must pass the independent validator.
//
// Constraint slack stays in the generator's default regime (>= 1.2x the
// critical path); see TestBruteHeuristicIncompletenessIsOneSided for the
// deliberately over-tight regime where greedy pasap is known to give up
// early.
func TestBruteDifferentialVsHeuristic(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	feasible, infeasible, optimal := 0, 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		inst := tinyInstance(seed, 3+int(seed%2), 1.2, 2.2)
		d, herr := core.SynthesizeBest(inst.Graph, inst.Library,
			core.Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}, core.Config{Workers: 1})
		br, berr := verify.BruteForce(inst.Graph, inst.Library, inst.Deadline, inst.PowerMax,
			verify.BruteOptions{MaxNodes: 16})
		if berr != nil {
			t.Fatalf("seed %d: brute force: %v", seed, berr)
		}
		if herr != nil {
			if !errors.Is(herr, core.ErrInfeasible) {
				t.Fatalf("seed %d: heuristic failed with a non-infeasibility error: %v", seed, herr)
			}
			if br.Feasible {
				t.Errorf("seed %d: heuristic declared infeasible but the exhaustive oracle found FU area %.2f (T=%d, P<=%g)",
					seed, br.FUArea, inst.Deadline, inst.PowerMax)
			}
			infeasible++
			continue
		}
		if !br.Feasible {
			t.Errorf("seed %d: heuristic produced a design but the exhaustive oracle proves the instance infeasible (T=%d, P<=%g)",
				seed, inst.Deadline, inst.PowerMax)
			continue
		}
		feasible++
		if d.Datapath.FUArea < br.FUArea-1e-6 {
			t.Errorf("seed %d: heuristic FU area %.2f beats the proven optimum %.2f — one of the two is wrong",
				seed, d.Datapath.FUArea, br.FUArea)
		}
		if d.Datapath.FUArea <= br.FUArea+1e-6 {
			optimal++
		}
		if err := verify.Check(bruteInput(inst, br)); err != nil {
			t.Errorf("seed %d: the oracle's own solution fails the validator: %v", seed, err)
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("constraint distribution degenerate: %d feasible, %d infeasible — the differential test needs both", feasible, infeasible)
	}
	t.Logf("%d instances: %d feasible (heuristic optimal on %d), %d infeasible, verdicts all agree", seeds, feasible, optimal, infeasible)
}

// TestBruteHeuristicIncompletenessIsOneSided pushes the slack down to the
// critical path itself, where the greedy pasap scheduler is expected to
// sometimes give up on instances the exhaustive search can still solve.
// That direction is acceptable for a heuristic (the paper's algorithm
// offers no completeness guarantee); the reverse direction — the engine
// emitting a design for an instance the oracle proves infeasible — would
// be a soundness bug and fails the test.
func TestBruteHeuristicIncompletenessIsOneSided(t *testing.T) {
	seeds := int64(400)
	if testing.Short() {
		seeds = 60
	}
	missed := 0
	for seed := int64(1); seed <= seeds; seed++ {
		inst := tinyInstance(seed, 4, 1.0, 1.3)
		_, herr := core.SynthesizeBest(inst.Graph, inst.Library,
			core.Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}, core.Config{Workers: 1})
		br, berr := verify.BruteForce(inst.Graph, inst.Library, inst.Deadline, inst.PowerMax,
			verify.BruteOptions{MaxNodes: 16})
		if berr != nil {
			t.Fatalf("seed %d: brute force: %v", seed, berr)
		}
		switch {
		case herr == nil && !br.Feasible:
			t.Errorf("seed %d: UNSOUND: heuristic produced a design, oracle proves infeasibility (T=%d, P<=%g)",
				seed, inst.Deadline, inst.PowerMax)
		case herr != nil && br.Feasible:
			missed++ // known greedy incompleteness; tolerated
		}
	}
	t.Logf("heuristic missed %d/%d feasible instances at critical-path slack (greedy incompleteness, one-sided)", missed, seeds)
}

// TestBruteMetamorphicRelaxation: relaxing either constraint can only
// help. For every tiny instance, raising the deadline or the power cap
// (or removing the cap) must keep a feasible instance feasible and never
// increase the provably optimal functional-unit area.
func TestBruteMetamorphicRelaxation(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 30
	}
	checked := 0
	for seed := int64(1); seed <= seeds; seed++ {
		inst := tinyInstance(seed, 3, 1.0, 1.8)
		base, err := verify.BruteForce(inst.Graph, inst.Library, inst.Deadline, inst.PowerMax,
			verify.BruteOptions{MaxNodes: 16})
		if err != nil {
			t.Fatalf("seed %d: brute force: %v", seed, err)
		}
		relaxations := []struct {
			name     string
			deadline int
			powerMax float64
		}{
			{"deadline+1", inst.Deadline + 1, inst.PowerMax},
			{"deadline+3", inst.Deadline + 3, inst.PowerMax},
			{"power*1.5", inst.Deadline, inst.PowerMax * 1.5},
			{"power-unconstrained", inst.Deadline, 0},
			{"both", inst.Deadline + 2, inst.PowerMax * 2},
		}
		for _, r := range relaxations {
			relaxed, err := verify.BruteForce(inst.Graph, inst.Library, r.deadline, r.powerMax,
				verify.BruteOptions{MaxNodes: 16})
			if err != nil {
				t.Fatalf("seed %d %s: brute force: %v", seed, r.name, err)
			}
			if base.Feasible && !relaxed.Feasible {
				t.Errorf("seed %d: relaxation %s turned a feasible instance infeasible", seed, r.name)
			}
			if base.Feasible && relaxed.Feasible && relaxed.FUArea > base.FUArea+1e-6 {
				t.Errorf("seed %d: relaxation %s increased the optimal FU area %.2f -> %.2f",
					seed, r.name, base.FUArea, relaxed.FUArea)
			}
			checked++
		}
	}
	t.Logf("checked %d relaxation pairs", checked)
}

func TestBruteRejectsOversizedAndMalformed(t *testing.T) {
	inst := tinyInstance(1, 6, 1.5, 2.0) // > 8 total nodes with transfers
	if _, err := verify.BruteForce(inst.Graph, inst.Library, inst.Deadline, inst.PowerMax, verify.BruteOptions{}); !errors.Is(err, verify.ErrTooLarge) {
		t.Errorf("default MaxNodes accepted a %d-node graph: %v", inst.Graph.N(), err)
	}
	if _, err := verify.BruteForce(inst.Graph, inst.Library, 0, 0, verify.BruteOptions{MaxNodes: 32}); err == nil {
		t.Error("non-positive deadline accepted")
	}
	// An exhausted expansion budget is an error, never a weaker verdict.
	if _, err := verify.BruteForce(inst.Graph, inst.Library, inst.Deadline, inst.PowerMax,
		verify.BruteOptions{MaxNodes: 32, MaxExpansions: 5}); !errors.Is(err, verify.ErrTooLarge) {
		t.Errorf("budget exhaustion not reported as ErrTooLarge: %v", err)
	}
}

// nonFiniteCaps are power caps the exhaustive searches must reject: no
// per-cycle draw compares above NaN, so a NaN (or infinite) cap would
// otherwise read as uncapped and the oracle would answer another question.
var nonFiniteCaps = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

func TestBruteForceRejectsNonFiniteCap(t *testing.T) {
	inst := tinyInstance(1, 3, 1.5, 2.0)
	for _, p := range nonFiniteCaps {
		if _, err := verify.BruteForce(inst.Graph, inst.Library, inst.Deadline, p, verify.BruteOptions{MaxNodes: 16}); err == nil {
			t.Errorf("accepted power cap %g", p)
		}
	}
}

func TestBruteFrontRejectsNonFiniteCap(t *testing.T) {
	inst := tinyInstance(1, 3, 1.5, 2.0)
	for _, p := range nonFiniteCaps {
		if _, err := verify.BruteFront(inst.Graph, inst.Library, inst.Deadline, p, nil, verify.BruteOptions{MaxNodes: 16}); err == nil {
			t.Errorf("accepted power cap %g", p)
		}
	}
}

func TestSchedulableRejectsNonFiniteCap(t *testing.T) {
	inst := tinyInstance(1, 3, 1.5, 2.0)
	n := inst.Graph.N()
	delays, powers := make([]int, n), make([]float64, n)
	for v := range delays {
		delays[v], powers[v] = 1, 1
	}
	for _, p := range nonFiniteCaps {
		if _, err := verify.Schedulable(inst.Graph, delays, powers, inst.Deadline, p, verify.BruteOptions{MaxNodes: 16}); err == nil {
			t.Errorf("accepted power cap %g", p)
		}
	}
}

// bruteTable1 runs the exhaustive search on g under Table 1, uncapped.
func bruteTable1(t *testing.T, g *cdfg.Graph, deadline int) *verify.BruteResult {
	t.Helper()
	br, err := verify.BruteForce(g, library.Table1(), deadline, 0, verify.BruteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return br
}

func TestBruteForceChain(t *testing.T) {
	// i -> a1(+) -> a2(+) -> o at T=6: one adder suffices (sequential),
	// plus one input and one output unit: 87 + 16 + 16 = 119.
	g := cdfg.New("t")
	i := g.MustAddNode("i", cdfg.Input)
	a1 := g.MustAddNode("a1", cdfg.Add)
	a2 := g.MustAddNode("a2", cdfg.Add)
	o := g.MustAddNode("o", cdfg.Output)
	g.MustAddEdge(i, a1)
	g.MustAddEdge(a1, a2)
	g.MustAddEdge(a2, o)
	if br := bruteTable1(t, g, 6); !br.Feasible || br.FUArea != 119 {
		t.Fatalf("optimum = %+v, want FU area 119", br)
	}
}

func TestBruteForcePrefersSerialMultWhenTimeAllows(t *testing.T) {
	// One multiply with plenty of slack: the serial multiplier (103) beats
	// the parallel one (339).
	g := cdfg.New("t")
	i := g.MustAddNode("i", cdfg.Input)
	m := g.MustAddNode("m", cdfg.Mul)
	o := g.MustAddNode("o", cdfg.Output)
	g.MustAddEdge(i, m)
	g.MustAddEdge(m, o)
	if br := bruteTable1(t, g, 8); !br.Feasible || br.FUArea != 103+16+16 {
		t.Fatalf("optimum = %+v, want FU area 135", br)
	}
	// At T=4 only the parallel multiplier fits.
	if br := bruteTable1(t, g, 4); !br.Feasible || br.FUArea != 339+16+16 {
		t.Fatalf("tight-T optimum = %+v, want FU area 371", br)
	}
}

func TestBruteForceInfeasible(t *testing.T) {
	// The input transfer and a multiply cannot both finish by T=2.
	g := cdfg.New("t")
	i := g.MustAddNode("i", cdfg.Input)
	m := g.MustAddNode("m", cdfg.Mul)
	g.MustAddEdge(i, m)
	if br := bruteTable1(t, g, 2); br.Feasible {
		t.Fatalf("found a design at T=2: %+v", br)
	}
}
