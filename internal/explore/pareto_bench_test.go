package explore

import (
	"fmt"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// paretoPin is one BenchmarkPareto graph: the front size and the minimum
// functional-unit area on the front that ExplorePareto reproduces at any
// worker count, and the lowest allocs/op ever recorded at 1 and 4 workers
// (TestParetoAllocs allows 20% over them).
type paretoPin struct {
	name             string
	points           int
	area             float64
	allocs1, allocs4 int
}

var paretoPins = []paretoPin{
	{"hal", 4, 610, 2579, 2590},
	{"elliptic", 4, 1337, 4752, 4763},
	{"fft8", 4, 1630, 4404, 4414},
}

// check fails tb unless front has the pinned size and minimum area.
func (pin paretoPin) check(tb testing.TB, workers int, front ParetoFront) {
	tb.Helper()
	if len(front.Points) != pin.points {
		tb.Fatalf("%s/workers=%d: front has %d points, pinned %d", pin.name, workers, len(front.Points), pin.points)
	}
	if front.Points[0].Area != pin.area {
		tb.Errorf("%s/workers=%d: minimum front area = %v, pinned %v", pin.name, workers, front.Points[0].Area, pin.area)
	}
}

// paretoBenchWorkers are the worker counts BenchmarkPareto runs.
var paretoBenchWorkers = []int{1, 4}

// paretoBenchGrid is the exploration BenchmarkPareto times on graph name:
// deadlines at the critical path plus {0, 2, 4, 6}, powers at 1.5, 2 and
// 3 times the minimum power floor plus unconstrained, a kibam battery
// sized by DefaultBattery, a 65536-period cap and single-pass synthesis.
func paretoBenchGrid(tb testing.TB, name string) (*cdfg.Graph, *library.Library, ParetoConfig) {
	tb.Helper()
	lib := library.Table1()
	g, err := bench.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	asap, err := sched.ASAP(g, sched.UniformFastest(lib))
	if err != nil {
		tb.Fatal(err)
	}
	floor, err := lib.MinPowerFloor(g)
	if err != nil {
		tb.Fatal(err)
	}
	battery, err := DefaultBattery(g, lib, "kibam")
	if err != nil {
		tb.Fatal(err)
	}
	cp := asap.Length()
	return g, lib, ParetoConfig{
		Deadlines:  []int{cp, cp + 2, cp + 4, cp + 6},
		Powers:     []float64{floor * 1.5, floor * 2, floor * 3, 0},
		Battery:    battery,
		MaxPeriods: 1 << 16,
		SinglePass: true,
		Config:     core.Config{Workers: 1},
	}
}

// TestParetoBenchPins checks BenchmarkPareto's fronts against their
// pinned size and minimum area at every benchmarked worker count.
func TestParetoBenchPins(t *testing.T) {
	for _, pin := range paretoPins {
		g, lib, cfg := paretoBenchGrid(t, pin.name)
		for _, workers := range paretoBenchWorkers {
			cfg.Workers = workers
			front, err := ExplorePareto(g, lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			pin.check(t, workers, front)
		}
	}
}

// BenchmarkPareto measures the four-objective Pareto exploration on the
// three benchmark grids the surface lane also uses, at 1 and 4 workers.
// Besides ns/op it reports the front size ("points") and the minimum
// functional-unit area on the front ("area"), and fails unless both match
// their pins (TestParetoBenchPins checks the same in the plain test run):
// a change to cell walking, battery simulation or the domination filter
// shows up here before it shows up in a served response. Wall time is
// A/B-gated by the fleet workload of the benchmark/ harness.
func BenchmarkPareto(b *testing.B) {
	for _, pin := range paretoPins {
		g, lib, cfg := paretoBenchGrid(b, pin.name)
		for _, workers := range paretoBenchWorkers {
			cfg := cfg
			cfg.Workers = workers
			b.Run(fmt.Sprintf("%s/workers=%d", pin.name, workers), func(b *testing.B) {
				var front ParetoFront
				var err error
				for i := 0; i < b.N; i++ {
					front, err = ExplorePareto(g, lib, cfg)
					if err != nil {
						b.Fatal(err)
					}
				}
				pin.check(b, workers, front)
				b.ReportMetric(float64(len(front.Points)), "points")
				b.ReportMetric(front.Points[0].Area, "area")
			})
		}
	}
}
