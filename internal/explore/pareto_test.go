package explore

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/core"
	"pchls/internal/library"
	"pchls/internal/sched"
	"pchls/internal/verify"
)

// paretoGrid derives a small benchmark-relative constraint grid: three
// deadlines starting at the fastest-module critical path, two finite
// power budgets above the instance's unavoidable floor, and the
// unconstrained budget.
func paretoGrid(t *testing.T, name string) (deadlines []int, powers []float64) {
	t.Helper()
	g, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	asap, err := sched.ASAP(g, sched.UniformFastest(library.Table1()))
	if err != nil {
		t.Fatal(err)
	}
	floor, err := library.Table1().MinPowerFloor(g)
	if err != nil {
		t.Fatal(err)
	}
	cp := asap.Length()
	return []int{cp, cp + 2, cp + 5}, []float64{floor * 1.5, floor * 3, 0}
}

// TestParetoSingleLevelMatchesSurfacePath is the degenerate-library
// equivalence lock: with the single-level Table 1 library on every
// classic benchmark, the Pareto explorer must be the surface explorer
// plus a domination filter — nothing more. Each front point's design is
// byte-compared against a direct synthesis at the point's own grid cell
// (exactly what a surface cell runs), the minimum area must agree with
// ExploreSurface on the same grid to the bit, and the front size is
// pinned per benchmark so a future change to cell walking, scoring or
// filtering cannot slip through as a silent behaviour change.
func TestParetoSingleLevelMatchesSurfacePath(t *testing.T) {
	type pin struct {
		points  int
		minArea float64
		latency int
	}
	wantFront := map[string]pin{
		"hal":      {points: 3, minArea: 610, latency: 13},
		"cosine":   {points: 3, minArea: 1728, latency: 14},
		"elliptic": {points: 3, minArea: 1341, latency: 23},
		"fir16":    {points: 3, minArea: 2628, latency: 11},
		"ar":       {points: 3, minArea: 1012, latency: 24},
		"diffeq2":  {points: 3, minArea: 1013, latency: 19},
		"fft8":     {points: 3, minArea: 2588, latency: 16},
	}
	for name := range wantFront {
		t.Run(name, func(t *testing.T) {
			g, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			lib := library.Table1()
			if lib.MultiLevel() {
				t.Fatal("Table 1 grew voltage levels; this test requires the degenerate single-level case")
			}
			deadlines, powers := paretoGrid(t, name)
			cfg := ParetoConfig{
				Deadlines:  deadlines,
				Powers:     powers,
				SinglePass: true,
				Workers:    2,
			}
			front, err := ExplorePareto(g, lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(front.Points) == 0 {
				t.Fatalf("empty front on %s (grid T=%v P=%v, %d feasible)", name, deadlines, powers, front.Feasible)
			}
			want := wantFront[name]
			best := front.Points[0]
			if len(front.Points) != want.points || best.Area != want.minArea || best.Latency != want.latency {
				t.Errorf("front = %d points, min area %g at latency %d; pinned (%d, %g, %d)\n%s",
					len(front.Points), best.Area, best.Latency, want.points, want.minArea, want.latency, front.CSV())
			}
			for _, p := range front.Points {
				// The cell's design must be exactly what the surface path
				// synthesizes at the same constraints.
				d, err := core.Synthesize(g, lib, core.Constraints{Deadline: p.Deadline, PowerMax: p.PowerMax}, cfg.Config)
				if err != nil {
					t.Fatalf("direct synthesis at front cell (T=%d, P<=%g) failed: %v", p.Deadline, p.PowerMax, err)
				}
				want, err := d.JSON()
				if err != nil {
					t.Fatal(err)
				}
				got, err := p.Design.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("front design at (T=%d, P<=%g) is not byte-identical to the surface cell's synthesis", p.Deadline, p.PowerMax)
				}
				if err := verify.Check(core.VerifyInput(p.Design)); err != nil {
					t.Errorf("front design at (T=%d, P<=%g) rejected by the validator: %v", p.Deadline, p.PowerMax, err)
				}
			}
			surf, err := ExploreSurface(g, lib, SurfaceConfig{
				Deadlines: deadlines, Powers: powers, SinglePass: true, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			minSurf := -1.0
			for _, sp := range surf.Points {
				if sp.Feasible && (minSurf < 0 || sp.Area < minSurf) {
					minSurf = sp.Area
				}
			}
			// Area is a minimized objective, so the global minimum survives
			// every domination filter; both paths synthesized the same
			// designs, so the floats must agree exactly.
			if minSurf != front.Points[0].Area {
				t.Errorf("min area disagrees: surface %v, pareto front %v", minSurf, front.Points[0].Area)
			}
		})
	}
}

// TestParetoFrontIsNonDominatedAndSorted locks the filter invariants on a
// real benchmark front.
func TestParetoFrontIsNonDominatedAndSorted(t *testing.T) {
	g, _ := bench.ByName("hal")
	deadlines, powers := paretoGrid(t, "hal")
	front, err := ExplorePareto(g, library.Table1(), ParetoConfig{
		Deadlines: deadlines, Powers: powers, SinglePass: true, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := front.Points
	for i, p := range pts {
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.Area <= p.Area && q.Latency <= p.Latency && q.Peak <= p.Peak && q.Lifetime >= p.Lifetime &&
				(q.Area < p.Area || q.Latency < p.Latency || q.Peak < p.Peak || q.Lifetime > p.Lifetime) {
				t.Errorf("point %d dominated by point %d", i, j)
			}
		}
		if i > 0 && pts[i-1].Area > p.Area {
			t.Errorf("front not sorted by area at %d", i)
		}
		if p.Lifetime <= 0 {
			t.Errorf("point %d: lifetime %d, want > 0 under the default battery", i, p.Lifetime)
		}
	}
	if !strings.Contains(front.CSV(), "benchmark,deadline,power,area,latency,peak_power,lifetime") {
		t.Error("CSV header missing")
	}
	if front.Evaluated != len(deadlines)*len(powers) {
		t.Errorf("evaluated = %d, want %d", front.Evaluated, len(deadlines)*len(powers))
	}
}

// TestParetoWorkerIndependence: the front must be byte-identical for
// every worker count (scoring and filtering run serially over cells
// collected in deterministic row-major order).
func TestParetoWorkerIndependence(t *testing.T) {
	g, _ := bench.ByName("cosine")
	deadlines, powers := paretoGrid(t, "cosine")
	var first string
	for _, workers := range []int{1, 4} {
		front, err := ExplorePareto(g, library.Table1(), ParetoConfig{
			Deadlines: deadlines, Powers: powers, SinglePass: true, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if first == "" {
			first = front.CSV()
		} else if front.CSV() != first {
			t.Errorf("front differs at %d workers:\n%s\nvs\n%s", workers, front.CSV(), first)
		}
	}
}

// TestParetoRejectsEmptyGridAndBadBattery covers the error contract.
func TestParetoRejectsEmptyGridAndBadBattery(t *testing.T) {
	g, _ := bench.ByName("hal")
	if _, err := ExplorePareto(g, library.Table1(), ParetoConfig{}); !errors.Is(err, ErrBadGrid) {
		t.Errorf("empty grid: got %v, want ErrBadGrid", err)
	}
	if _, err := NewBattery("nimh", 100); err == nil {
		t.Error("unknown battery model accepted")
	}
	if _, err := NewBattery("", 100); err != nil {
		t.Errorf("empty model must default to kibam: %v", err)
	}
	b, err := NewBattery("peukert", 100)
	if err != nil {
		t.Fatal(err)
	}
	if b.Model() != "peukert" {
		t.Errorf("Model() = %q, want peukert", b.Model())
	}
}

// TestParetoDropsDominatedCells runs a grid on which some feasible cells
// are dominated: elliptic on Table 1 at deadlines cp+{0,1,2,4,8} and at
// the power floor times {1.2,1.5,2,3,5} plus the unconstrained budget.
// Every cell is scored independently of the explorer, and the front must
// hold exactly the distinct objective tuples no other cell dominates.
func TestParetoDropsDominatedCells(t *testing.T) {
	g, _ := bench.ByName("elliptic")
	lib := library.Table1()
	asap, err := sched.ASAP(g, sched.UniformFastest(lib))
	if err != nil {
		t.Fatal(err)
	}
	floor, err := lib.MinPowerFloor(g)
	if err != nil {
		t.Fatal(err)
	}
	cp := asap.Length()
	deadlines := []int{cp, cp + 1, cp + 2, cp + 4, cp + 8}
	powers := []float64{floor * 1.2, floor * 1.5, floor * 2, floor * 3, floor * 5, 0}
	battery, err := DefaultBattery(g, lib, "")
	if err != nil {
		t.Fatal(err)
	}
	front, err := ExplorePareto(g, lib, ParetoConfig{
		Deadlines: deadlines, Powers: powers, Battery: battery, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	type tuple [4]float64
	var cells []tuple
	seen := map[tuple]bool{}
	for _, T := range deadlines {
		for _, P := range powers {
			d, err := core.SynthesizeBest(g, lib, core.Constraints{Deadline: T, PowerMax: P}, core.Config{})
			if err != nil {
				continue
			}
			life, _ := battery.Lifetime(d.Schedule.Profile(), 1<<20)
			tp := tuple{d.Area(), float64(d.Schedule.Length()), d.Schedule.PeakPower(), float64(life)}
			if !seen[tp] {
				seen[tp] = true
				cells = append(cells, tp)
			}
		}
	}
	dominates := func(q, p tuple) bool {
		return q[0] <= p[0] && q[1] <= p[1] && q[2] <= p[2] && q[3] >= p[3] && q != p
	}
	want := map[tuple]bool{}
	for _, p := range cells {
		dominated := false
		for _, q := range cells {
			dominated = dominated || dominates(q, p)
		}
		if !dominated {
			want[p] = true
		}
	}
	if len(cells) != 7 || len(want) != 5 {
		t.Fatalf("grid has %d distinct feasible tuples and %d non-dominated, want 7 and 5", len(cells), len(want))
	}
	if len(front.Points) != len(want) {
		t.Fatalf("front has %d points, want %d:\n%s", len(front.Points), len(want), front.CSV())
	}
	for _, p := range front.Points {
		if tp := (tuple{p.Area, float64(p.Latency), p.Peak, float64(p.Lifetime)}); !want[tp] {
			t.Errorf("front point %+v is dominated or not a grid cell", tp)
		}
	}
}
