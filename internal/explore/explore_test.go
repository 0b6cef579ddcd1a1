package explore

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/library"
)

func halSweep(t *testing.T, cfg SweepConfig) Curve {
	t.Helper()
	c, err := Sweep(bench.HAL(), library.Table1(), 17, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSweepBasics(t *testing.T) {
	cfg := SweepConfig{PowerMin: 4, PowerMax: 30, Step: 2, SinglePass: true}
	c := halSweep(t, cfg)
	if c.Benchmark != "hal" || c.Deadline != 17 {
		t.Fatalf("curve identity: %s T=%d", c.Benchmark, c.Deadline)
	}
	if len(c.Points) != 14 {
		t.Fatalf("%d points, want 14", len(c.Points))
	}
	// Low budgets infeasible (every mult needs >= 2.7 plus concurrency),
	// high budgets feasible.
	if c.Points[0].Feasible {
		t.Error("P=4 should be infeasible for hal (mult power 2.7 + adds)")
	}
	last := c.Points[len(c.Points)-1]
	if !last.Feasible {
		t.Error("P=30 should be feasible for hal T=17")
	}
	if last.Peak > last.Power {
		t.Errorf("peak %.2f exceeds budget %g", last.Peak, last.Power)
	}
}

func TestSweepSubsumptionMonotone(t *testing.T) {
	cfg := SweepConfig{PowerMin: 5, PowerMax: 30, Step: 2.5}
	c := halSweep(t, cfg)
	prev := -1.0
	for _, p := range c.Points {
		if !p.Feasible {
			continue
		}
		if prev > 0 && p.Area > prev+1e-9 {
			t.Fatalf("subsumed curve not monotone: %.1f after %.1f at P=%g", p.Area, prev, p.Power)
		}
		prev = p.Area
	}
}

func TestSweepNoSubsume(t *testing.T) {
	cfg := SweepConfig{PowerMin: 6, PowerMax: 12, Step: 3, SinglePass: true, NoSubsume: true}
	c := halSweep(t, cfg)
	for _, p := range c.Points {
		if p.Feasible && p.Peak > p.Power+1e-9 {
			t.Fatalf("raw point violates its own budget: %+v", p)
		}
	}
}

func TestSweepBadGrid(t *testing.T) {
	for _, cfg := range []SweepConfig{
		{PowerMin: 5, PowerMax: 10, Step: 0},
		{PowerMin: 10, PowerMax: 5, Step: 1},
		{PowerMin: -5, PowerMax: 10, Step: 1},
		{PowerMin: 5, PowerMax: math.Inf(1), Step: 1},
		{PowerMin: math.Inf(-1), PowerMax: 10, Step: 1},
		{PowerMin: math.NaN(), PowerMax: 10, Step: 1},
		{PowerMin: 5, PowerMax: math.NaN(), Step: 1},
		{PowerMin: 5, PowerMax: 10, Step: math.NaN()},
		{PowerMin: 5, PowerMax: 10, Step: math.Inf(1)},
		{PowerMin: 1e17, PowerMax: 1e17 + 100, Step: 1}, // p += step cannot advance
	} {
		if _, err := Sweep(bench.HAL(), library.Table1(), 17, cfg); !errors.Is(err, ErrBadGrid) {
			t.Errorf("cfg %+v accepted", cfg)
		}
	}
}

func TestCurveCSVAndHelpers(t *testing.T) {
	cfg := SweepConfig{PowerMin: 5, PowerMax: 30, Step: 5, SinglePass: true}
	c := halSweep(t, cfg)
	csv := c.CSV()
	if !strings.HasPrefix(csv, "benchmark,deadline,power") {
		t.Fatalf("csv header: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if n := strings.Count(csv, "\n"); n != len(c.Points)+1 {
		t.Fatalf("csv has %d lines, want %d", n, len(c.Points)+1)
	}
	knee, ok := c.Knee()
	if !ok || knee < 5 || knee > 30 {
		t.Fatalf("knee = %g, %v", knee, ok)
	}
	plat, ok := c.PlateauArea()
	if !ok || plat <= 0 {
		t.Fatalf("plateau = %g, %v", plat, ok)
	}
	if c.Label() != "hal (T=17)" {
		t.Fatalf("label = %q", c.Label())
	}
}

func TestKneeInfeasibleCurve(t *testing.T) {
	cfg := SweepConfig{PowerMin: 0.5, PowerMax: 1, Step: 0.5, SinglePass: true}
	c := halSweep(t, cfg)
	if _, ok := c.Knee(); ok {
		t.Fatal("knee on all-infeasible curve")
	}
	if _, ok := c.PlateauArea(); ok {
		t.Fatal("plateau on all-infeasible curve")
	}
}

func TestFigure2Specs(t *testing.T) {
	specs := Figure2Specs()
	if len(specs) != 6 {
		t.Fatalf("%d specs", len(specs))
	}
	want := map[string][]int{"hal": {10, 17}, "cosine": {12, 15, 19}, "elliptic": {22}}
	got := map[string][]int{}
	for _, s := range specs {
		got[s.Benchmark] = append(got[s.Benchmark], s.Deadline)
	}
	for b, ds := range want {
		if len(got[b]) != len(ds) {
			t.Errorf("%s deadlines = %v, want %v", b, got[b], ds)
		}
	}
	min, max, step := DefaultGrid()
	if min <= 0 || max != 150 || step <= 0 {
		t.Fatalf("grid = %g %g %g", min, max, step)
	}
}

func TestPlot(t *testing.T) {
	cfg := SweepConfig{PowerMin: 5, PowerMax: 30, Step: 5, SinglePass: true}
	c := halSweep(t, cfg)
	out := Plot([]Curve{c}, 60, 15)
	if !strings.Contains(out, "Area vs power constraint") {
		t.Fatalf("plot header missing:\n%s", out)
	}
	if !strings.Contains(out, "o hal (T=17)") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "o") {
		t.Fatal("no markers plotted")
	}
	// Degenerate inputs.
	if out := Plot(nil, 0, 0); !strings.Contains(out, "no feasible points") {
		t.Fatalf("empty plot: %q", out)
	}
}

func TestFigure1(t *testing.T) {
	r, err := Figure1(bench.HAL(), library.Table1(), 12)
	if err != nil {
		t.Fatal(err)
	}
	// The unconstrained schedule spikes above the cap; the constrained one
	// respects it.
	if r.StatsU.Peak <= 12 {
		t.Fatalf("unconstrained peak %.2f should exceed the cap", r.StatsU.Peak)
	}
	if r.StatsC.Peak > 12 {
		t.Fatalf("constrained peak %.2f exceeds the cap", r.StatsC.Peak)
	}
	// Energy invariant.
	if diff := r.StatsU.Energy - r.StatsC.Energy; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("energy changed: %.2f vs %.2f", r.StatsU.Energy, r.StatsC.Energy)
	}
	// The capped profile must extend battery lifetime on both models —
	// the paper's motivating claim.
	if r.Kibam.ExtensionPercent() <= 0 {
		t.Fatalf("KiBaM extension = %.1f%%", r.Kibam.ExtensionPercent())
	}
	if r.Peukert.ExtensionPercent() <= 0 {
		t.Fatalf("Peukert extension = %.1f%%", r.Peukert.ExtensionPercent())
	}
	rep := r.Report()
	for _, want := range []string{"Undesired power schedule", "Desired power schedule", "battery lifetime (KiBaM)", "invariant"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFigure1InfeasibleCap(t *testing.T) {
	if _, err := Figure1(bench.HAL(), library.Table1(), 1); err == nil {
		t.Fatal("cap below single-op power accepted")
	}
}
