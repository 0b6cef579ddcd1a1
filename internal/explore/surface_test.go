package explore

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/library"
)

func halSurface(t *testing.T) Surface {
	t.Helper()
	s, err := ExploreSurface(bench.HAL(), library.Table1(), SurfaceConfig{
		Deadlines:  []int{9, 12, 17},
		Powers:     []float64{6, 10, 20, 30},
		SinglePass: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExploreSurfaceMonotone(t *testing.T) {
	s := halSurface(t)
	if len(s.Points) != 12 {
		t.Fatalf("%d points, want 12", len(s.Points))
	}
	area := map[[2]float64]SurfacePoint{}
	for _, p := range s.Points {
		area[[2]float64{float64(p.Deadline), p.Power}] = p
	}
	// Monotone in P< at fixed T, and in T at fixed P<.
	for _, T := range []float64{9, 12, 17} {
		prev := -1.0
		for _, P := range []float64{6, 10, 20, 30} {
			pt := area[[2]float64{T, P}]
			if !pt.Feasible {
				continue
			}
			if prev > 0 && pt.Area > prev+1e-9 {
				t.Fatalf("T=%g: area rose from %.1f to %.1f at P=%g", T, prev, pt.Area, P)
			}
			prev = pt.Area
		}
	}
	for _, P := range []float64{6, 10, 20, 30} {
		prev := -1.0
		for _, T := range []float64{9, 12, 17} {
			pt := area[[2]float64{T, P}]
			if !pt.Feasible {
				continue
			}
			if prev > 0 && pt.Area > prev+1e-9 {
				t.Fatalf("P=%g: area rose from %.1f to %.1f at T=%g", P, prev, pt.Area, T)
			}
			prev = pt.Area
		}
	}
	// T=9 is below hal's critical path (with IO) at low power: some cells
	// infeasible; T=17 at P=30 must be feasible.
	if !area[[2]float64{17, 30}].Feasible {
		t.Fatal("loose corner infeasible")
	}
}

func TestSurfaceParetoFront(t *testing.T) {
	s := halSurface(t)
	front := s.ParetoFront()
	if len(front) == 0 {
		t.Fatal("empty front")
	}
	// No point on the front dominates another.
	for i, p := range front {
		for j, q := range front {
			if i == j {
				continue
			}
			if q.Deadline <= p.Deadline && q.Power <= p.Power && q.Area <= p.Area &&
				(q.Deadline < p.Deadline || q.Power < p.Power || q.Area < p.Area) {
				t.Fatalf("front point %+v dominated by %+v", p, q)
			}
		}
	}
}

func TestSurfaceCSVAndTable(t *testing.T) {
	s := halSurface(t)
	csv := s.CSV()
	if !strings.HasPrefix(csv, "benchmark,deadline,power") || strings.Count(csv, "\n") != 13 {
		t.Fatalf("csv malformed")
	}
	table := s.Table()
	if !strings.Contains(table, "T\\P<") {
		t.Fatalf("table header missing:\n%s", table)
	}
	// Three deadline rows plus the header.
	if strings.Count(table, "\n") != 4 {
		t.Fatalf("table rows:\n%s", table)
	}
	if !strings.Contains(table, "-") {
		t.Fatalf("expected at least one infeasible cell:\n%s", table)
	}
}

func TestExploreSurfaceBadGrid(t *testing.T) {
	if _, err := ExploreSurface(bench.HAL(), library.Table1(), SurfaceConfig{}); !errors.Is(err, ErrBadGrid) {
		t.Fatalf("err = %v", err)
	}
}

// TestZeroBudgetLeaksNoDesign: a 0 budget is the uncapped cell, which the
// grid sorts first in its row. In sweeps and surfaces that sample 0,
// every feasible capped cell has a peak within its cap, and areas are
// monotone over the capped budgets. At T=17, hal's uncapped design (peak
// 8.1) does not fit P=5. At T=34, elliptic's uncapped design (area 792,
// peak 10.4) has less area than its P=7 design, but must not displace it
// as the design P=8 inherits.
func TestZeroBudgetLeaksNoDesign(t *testing.T) {
	lib := library.Table1()
	check := func(what string, pts []TimePoint) {
		t.Helper()
		prev := map[int]float64{}
		for _, p := range pts {
			if p.Power == 0 || !p.Feasible {
				continue
			}
			if p.Peak > p.Power+1e-9 {
				t.Errorf("%s T=%d P=%g: feasible with peak %g over the cap", what, p.Deadline, p.Power, p.Peak)
			}
			if a, ok := prev[p.Deadline]; ok && p.Area > a {
				t.Errorf("%s T=%d: area rose from %g to %g at P=%g", what, p.Deadline, a, p.Area, p.Power)
			}
			prev[p.Deadline] = p.Area
		}
	}
	for _, tc := range []struct {
		name     string
		deadline int
		max      float64
		step     float64
	}{{"hal", 17, 30, 5}, {"elliptic", 34, 10, 1}} {
		g, err := bench.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Sweep(g, lib, tc.deadline, SweepConfig{PowerMin: 0, PowerMax: tc.max, Step: tc.step, SinglePass: true})
		if err != nil {
			t.Fatal(err)
		}
		pts := make([]TimePoint, len(c.Points))
		for i, p := range c.Points {
			pts[i] = TimePoint{Deadline: c.Deadline, Point: p}
		}
		check(tc.name+" sweep", pts)
	}

	// Surface peaks are read from the cells the surface is copied from.
	gr := grid{deadlines: []int{10, 17}, powers: []float64{0, 5, 10}, singlePass: true}
	cells, err := gr.evaluate(context.Background(), bench.HAL(), lib)
	if err != nil {
		t.Fatal(err)
	}
	gr.subsume(cells)
	pts := make([]TimePoint, len(cells))
	for i, c := range cells {
		pts[i] = c.TimePoint
	}
	check("hal surface", pts)
}
