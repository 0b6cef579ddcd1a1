package core

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/library"
)

func mustSynth(t *testing.T, g *cdfg.Graph, T int, P float64) *Design {
	t.Helper()
	d, err := Synthesize(g, library.Table1(), Constraints{Deadline: T, PowerMax: P}, Config{})
	if err != nil {
		t.Fatalf("Synthesize(%s, T=%d, P=%g): %v", g.Name, T, P, err)
	}
	return d
}

// checkDesign verifies the invariants every returned design must satisfy.
func checkDesign(t *testing.T, d *Design, T int, P float64) {
	t.Helper()
	if err := d.Schedule.Validate(P, T); err != nil {
		t.Fatalf("design schedule invalid: %v", err)
	}
	if len(d.FUOf) != d.Graph.N() {
		t.Fatalf("FUOf covers %d of %d nodes", len(d.FUOf), d.Graph.N())
	}
	for _, n := range d.Graph.Nodes() {
		fu := d.FUs[d.FUOf[n.ID]]
		if !fu.Module.Implements(n.Op) {
			t.Fatalf("node %q (%s) bound to module %q", n.Name, n.Op, fu.Module.Name)
		}
	}
	if d.Area() != d.Datapath.FUArea+d.Datapath.RegArea+d.Datapath.MuxArea {
		t.Fatal("area breakdown inconsistent")
	}
	if len(d.Decisions) != d.Graph.N() {
		t.Fatalf("%d decisions for %d nodes", len(d.Decisions), d.Graph.N())
	}
}

func TestSynthesizeHALBasic(t *testing.T) {
	d := mustSynth(t, bench.HAL(), 10, 0)
	checkDesign(t, d, 10, 0)
	if d.Schedule.Length() > 10 {
		t.Fatalf("length %d > 10", d.Schedule.Length())
	}
	// Sharing must happen: fewer FUs than nodes.
	if len(d.FUs) >= d.Graph.N() {
		t.Fatalf("no sharing: %d FUs for %d nodes", len(d.FUs), d.Graph.N())
	}
}

func TestSynthesizeRespectsPowerCap(t *testing.T) {
	for _, p := range []float64{25, 20, 18} {
		d := mustSynth(t, bench.HAL(), 10, p)
		checkDesign(t, d, 10, p)
		if peak := d.Schedule.PeakPower(); peak > p {
			t.Fatalf("P<=%g: peak %g", p, peak)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a := mustSynth(t, bench.Elliptic(), 22, 15)
	b := mustSynth(t, bench.Elliptic(), 22, 15)
	if a.Report() != b.Report() {
		t.Fatal("two identical syntheses produced different designs")
	}
}

func TestSynthesizeAllBenchmarksFigure2Points(t *testing.T) {
	cases := []struct {
		name string
		T    int
		P    float64
	}{
		{"hal", 10, 0}, {"hal", 10, 20}, {"hal", 17, 0}, {"hal", 17, 8},
		{"cosine", 12, 0}, {"cosine", 12, 40},
		{"cosine", 15, 0}, {"cosine", 15, 30},
		{"cosine", 19, 0}, {"cosine", 19, 20},
		{"elliptic", 22, 0}, {"elliptic", 22, 15},
	}
	for _, tc := range cases {
		g, err := bench.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		d := mustSynth(t, g, tc.T, tc.P)
		checkDesign(t, d, tc.T, tc.P)
	}
}

func TestSynthesizeInfeasiblePower(t *testing.T) {
	// Every module for * draws at least 2.7: P = 1 is hopeless.
	_, err := Synthesize(bench.HAL(), library.Table1(), Constraints{Deadline: 20, PowerMax: 1}, Config{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSynthesizeInfeasibleDeadline(t *testing.T) {
	_, err := Synthesize(bench.HAL(), library.Table1(), Constraints{Deadline: 4, PowerMax: 0}, Config{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestSynthesizeBadDeadline(t *testing.T) {
	if _, err := Synthesize(bench.HAL(), library.Table1(), Constraints{Deadline: 0}, Config{}); err == nil {
		t.Fatal("accepted deadline 0")
	}
	// A non-finite cap is rejected too: no cycle compares above NaN, so it
	// would otherwise pass every power check.
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Synthesize(bench.HAL(), library.Table1(), Constraints{Deadline: 10, PowerMax: p}, Config{}); err == nil {
			t.Fatalf("accepted power cap %g", p)
		}
		if _, err := ExactSynthesize(bench.HAL(), library.Table1(), Constraints{Deadline: 10, PowerMax: p}, 0); err == nil {
			t.Fatalf("exact synthesis accepted power cap %g", p)
		}
	}
	// Zero and negative caps mean unconstrained.
	free, err := Synthesize(bench.HAL(), library.Table1(), Constraints{Deadline: 10}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	neg, err := Synthesize(bench.HAL(), library.Table1(), Constraints{Deadline: 10, PowerMax: -1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if neg.Area() != free.Area() {
		t.Fatalf("negative cap area %v, unconstrained %v", neg.Area(), free.Area())
	}
}

func TestSynthesizeUncoveredLibrary(t *testing.T) {
	lib, err := library.Table1Without(library.NameMulSer, library.NameMulPar)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Synthesize(bench.HAL(), lib, Constraints{Deadline: 10}, Config{})
	if !errors.Is(err, ErrUncovered) {
		t.Fatalf("err = %v, want ErrUncovered", err)
	}
}

func TestSynthesizeInvalidGraph(t *testing.T) {
	g := cdfg.New("bad")
	a := g.MustAddNode("a", cdfg.Add)
	b := g.MustAddNode("b", cdfg.Add)
	g.MustAddEdge(a, b)
	g.MustAddEdge(b, a) // cycle
	if _, err := Synthesize(g, library.Table1(), Constraints{Deadline: 5}, Config{}); err == nil {
		t.Fatal("accepted cyclic graph")
	}
}

func TestRepairLockTriggersAndDisableRepairFails(t *testing.T) {
	// hal at T=17, P=5.5 is known to need the backtrack-and-lock repair.
	g := bench.HAL()
	cons := Constraints{Deadline: 17, PowerMax: 5.5}
	d, err := Synthesize(g, library.Table1(), cons, Config{})
	if err != nil {
		t.Fatalf("repair-needing case failed: %v", err)
	}
	if !d.Locked {
		t.Skip("constraint set no longer triggers repair; pick a tighter point")
	}
	checkDesign(t, d, cons.Deadline, cons.PowerMax)
	if _, err := Synthesize(g, library.Table1(), cons, Config{DisableRepair: true}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("DisableRepair err = %v, want ErrInfeasible", err)
	}
}

func TestTighterPowerNeverBeatsUnconstrainedByMuch(t *testing.T) {
	// Sanity on the objective: the unconstrained area should be no worse
	// than a tightly constrained one by more than the noise margin of the
	// greedy (the constrained design is also valid unconstrained).
	free, err := SynthesizeBest(bench.HAL(), library.Table1(), Constraints{Deadline: 17}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := SynthesizeBest(bench.HAL(), library.Table1(), Constraints{Deadline: 17, PowerMax: 8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if free.Area() > tight.Area()*1.15 {
		t.Fatalf("unconstrained area %.1f much worse than constrained %.1f", free.Area(), tight.Area())
	}
}

func TestSynthesizeBestNotWorseThanSinglePass(t *testing.T) {
	for _, tc := range []struct {
		name string
		T    int
		P    float64
	}{{"hal", 10, 0}, {"hal", 17, 8}, {"elliptic", 22, 15}} {
		g, _ := bench.ByName(tc.name)
		cons := Constraints{Deadline: tc.T, PowerMax: tc.P}
		single, err := Synthesize(g, library.Table1(), cons, Config{})
		if err != nil {
			t.Fatal(err)
		}
		best, err := SynthesizeBest(g, library.Table1(), cons, Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkDesign(t, best, tc.T, tc.P)
		if best.Cons != cons {
			t.Fatalf("SynthesizeBest reports cons %+v, want %+v", best.Cons, cons)
		}
		if best.Area() > single.Area() {
			t.Fatalf("%s: SynthesizeBest %.1f worse than Synthesize %.1f", tc.name, best.Area(), single.Area())
		}
	}
}

func TestSharedFUsNeverOverlap(t *testing.T) {
	d := mustSynth(t, bench.Cosine(), 15, 30)
	for fi, fu := range d.FUs {
		for i := 0; i < len(fu.Ops); i++ {
			for j := i + 1; j < len(fu.Ops); j++ {
				a, b := fu.Ops[i], fu.Ops[j]
				if d.Schedule.Start[a] < d.Schedule.End(b) && d.Schedule.Start[b] < d.Schedule.End(a) {
					t.Fatalf("FU %d: ops %d and %d overlap", fi, a, b)
				}
			}
		}
	}
}

func TestReportContents(t *testing.T) {
	d := mustSynth(t, bench.HAL(), 17, 8)
	rep := d.Report()
	for _, want := range []string{"design \"hal\"", "T = 17", "P< = 8", "decisions (20)", "schedule:", "datapath:", "area:"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	sum := d.Summary()
	if !strings.Contains(sum, "hal T=17") || !strings.Contains(sum, "area") {
		t.Errorf("summary = %q", sum)
	}
	// Unconstrained rendering.
	d2 := mustSynth(t, bench.HAL(), 17, 0)
	if !strings.Contains(d2.Summary(), "unconstrained") {
		t.Errorf("summary = %q", d2.Summary())
	}
}

func TestQuickSynthesizeRandomGraphsValid(t *testing.T) {
	lib := library.Table1()
	f := func(seed int64, szRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := bench.Random(rng, bench.RandomConfig{Nodes: int(szRaw%14) + 2, MaxWidth: 3})
		// Deadline: serial critical path plus slack; power: generous or
		// moderately tight.
		cp, _ := g.CriticalPath(func(n cdfg.Node) int {
			if n.Op == cdfg.Mul {
				return 4
			}
			return 1
		})
		T := cp + int(pRaw%8)
		P := 0.0
		if pRaw%2 == 0 {
			P = 8.2 + float64(pRaw%30)
		}
		d, err := Synthesize(g, lib, Constraints{Deadline: T, PowerMax: P}, Config{})
		if errors.Is(err, ErrInfeasible) {
			return true // heuristic infeasibility is allowed
		}
		if err != nil {
			return false
		}
		return d.Schedule.Validate(P, T) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAreaTrendAcrossPowerSweep(t *testing.T) {
	// The Figure 2 premise: with best-effort synthesis plus subsumption
	// (looser budgets may reuse tighter designs), area is non-increasing
	// in the power budget. Verify on hal T=17 at three budgets.
	lib := library.Table1()
	budgets := []float64{5.5, 8, 30}
	bestSoFar := 0.0
	prev := -1.0
	for _, p := range budgets {
		d, err := SynthesizeBest(bench.HAL(), lib, Constraints{Deadline: 17, PowerMax: p}, Config{})
		if err != nil {
			t.Fatalf("P=%g: %v", p, err)
		}
		area := d.Area()
		if bestSoFar > 0 && bestSoFar < area {
			area = bestSoFar // subsumption: tighter design is reusable
		}
		if prev > 0 && area > prev+1e-9 {
			t.Fatalf("area rose from %.1f to %.1f as budget loosened to %g", prev, area, p)
		}
		prev = area
		if bestSoFar == 0 || area < bestSoFar {
			bestSoFar = area
		}
	}
}

func TestUtilization(t *testing.T) {
	d := mustSynth(t, bench.HAL(), 17, 8)
	u := d.Utilization()
	if len(u) != len(d.FUs) {
		t.Fatalf("%d utilizations for %d FUs", len(u), len(d.FUs))
	}
	for i, x := range u {
		if x <= 0 || x > 1+1e-9 {
			t.Errorf("FU%d utilization %g out of (0,1]", i, x)
		}
	}
	mean := d.MeanUtilization()
	if mean <= 0 || mean > 1 {
		t.Fatalf("mean utilization %g", mean)
	}
	// Sharing-heavy designs should keep the hardware reasonably busy.
	if mean < 0.2 {
		t.Errorf("mean utilization %.2f suspiciously low for a constrained design", mean)
	}
}
