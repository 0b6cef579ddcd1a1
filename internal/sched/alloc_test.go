//go:build !race

// Allocation-regression tests for the scheduler hot path. AllocsPerRun
// counts are not meaningful under the race detector (the runtime inserts
// extra allocations), so these run in the race-free CI lane only.

package sched

import (
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
)

// hotOptions builds the synthesizer-style options for g: a bound arena,
// precomputed delay/power tables and a FixedStarts buffer, which is what
// the synthesize loop passes on every run.
func hotOptions(g *cdfg.Graph, powerMax float64) (Options, Binding) {
	bind := UniformFastest(library.Table1())
	n := g.N()
	delays := make([]int, n)
	powers := make([]float64, n)
	for _, node := range g.Nodes() {
		m := bind(node)
		delays[node.ID] = m.Delay
		powers[node.ID] = m.Power
	}
	fixed := make([]int, n)
	for i := range fixed {
		fixed[i] = -1
	}
	return Options{
		PowerMax:    powerMax,
		FixedStarts: fixed,
		Delays:      delays,
		Powers:      powers,
		Arena:       NewArena(g),
	}, bind
}

// TestPASAPSteadyStateAllocs pins the steady-state allocation count of a
// full PASAP run with arena and tables: the returned Schedule shell and
// its Start slice, nothing else. A regression here multiplies by the
// ~10^3 scheduler runs of every synthesis.
func TestPASAPSteadyStateAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	// Warm the arena (topo order, profile, order buffers).
	if _, err := PASAP(g, bind, opts); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := PASAP(g, bind, opts); err != nil {
			t.Fatal(err)
		}
	})
	const max = 2 // Schedule struct + Start slice
	if got > max {
		t.Fatalf("PASAP steady state allocates %.1f/run, budget %d", got, max)
	}
}

// TestPALAPSteadyStateAllocs pins the steady-state allocation count of a
// full PALAP run: the forward and reversed Schedule shells with their
// Start slices (the reversed graph and all conversion buffers live in the
// arena).
func TestPALAPSteadyStateAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	if _, err := PALAP(g, bind, 40, opts); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := PALAP(g, bind, 40, opts); err != nil {
			t.Fatal(err)
		}
	})
	const max = 4 // two Schedule shells + two Start slices
	if got > max {
		t.Fatalf("PALAP steady state allocates %.1f/run, budget %d", got, max)
	}
}

// TestWindowsDirtySteadyStateAllocs pins the warm-path window
// re-derivation: one pasap + one palap pair plus the returned window
// slice.
func TestWindowsDirtySteadyStateAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	prev, err := Windows(g, bind, 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, g.N())
	if _, err := WindowsDirty(g, bind, 40, opts, prev, dirty); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := WindowsDirty(g, bind, 40, opts, prev, dirty); err != nil {
			t.Fatal(err)
		}
	})
	const max = 7 // pasap (2) + palap (4) + the []Window result
	if got > max {
		t.Fatalf("WindowsDirty steady state allocates %.1f/run, budget %d", got, max)
	}
}

// hotSelectionGraphs returns the graphs the selection budget and benchmark
// run on: elliptic and a 1000-node layered graph.
func hotSelectionGraphs(tb testing.TB) []namedGraph {
	return []namedGraph{
		{"elliptic", bench.Elliptic()},
		{"layered-n1000", presetGraph(tb, gen.PresetLayered, 1000, false)},
	}
}

// TestCriticalFirstOrderAllocs pins the critical-first selection at zero
// allocations per run with a warmed arena, on the forward and the reversed
// graph: its priority, bucket and order buffers all live in the arena.
func TestCriticalFirstOrderAllocs(t *testing.T) {
	for _, c := range hotSelectionGraphs(t) {
		opts, bind := hotOptions(c.g, 20)
		a := opts.Arena
		for _, g := range []*cdfg.Graph{c.g, a.reverseOf(c.g)} {
			if _, err := criticalFirstOrder(g, bind, &opts, a); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(50, func() {
				if _, err := criticalFirstOrder(g, bind, &opts, a); err != nil {
					t.Fatal(err)
				}
			})
			if got != 0 {
				t.Fatalf("%s: criticalFirstOrder allocates %.1f/run with a warm arena, budget 0", c.name, got)
			}
		}
	}
}

// BenchmarkCriticalFirstOrder times the selection layer alone, with a warmed
// arena and delay tables, as the synthesizer's scheduler runs call it.
func BenchmarkCriticalFirstOrder(b *testing.B) {
	for _, c := range hotSelectionGraphs(b) {
		b.Run(c.name, func(b *testing.B) {
			opts, bind := hotOptions(c.g, 20)
			if _, err := criticalFirstOrder(c.g, bind, &opts, opts.Arena); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := criticalFirstOrder(c.g, bind, &opts, opts.Arena); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
