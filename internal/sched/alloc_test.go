//go:build !race

// Allocation-regression tests for the scheduler hot path. AllocsPerRun
// counts are not meaningful under the race detector (the runtime inserts
// extra allocations), so these run in the race-free CI lane only.

package sched

import (
	"errors"
	"slices"
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

// TestPASAPFailingSteadyStateAllocs pins a failed PASAP run: the shell
// and Start slice it allocates before placing anything, plus the error
// value, which is formatted only when read. Failed override runs are
// common in synthesis and their errors are dropped unread.
func TestPASAPFailingSteadyStateAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	// Fix the last node of the selection order at cycle 0: every path
	// into it is left without room, so the run fails placing a
	// predecessor.
	order, err := criticalFirstOrder(g, bind, &opts, opts.Arena)
	if err != nil {
		t.Fatal(err)
	}
	opts.FixedStarts[order[len(order)-1]] = 0
	if _, err := PASAP(g, bind, opts); !errors.Is(err, ErrHorizon) {
		t.Fatalf("pasap = %v, want ErrHorizon", err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := PASAP(g, bind, opts); err == nil {
			t.Fatal("pasap succeeded")
		}
	})
	const max = 3 // Schedule struct + Start slice + the error
	if got > max {
		t.Fatalf("failing PASAP allocates %.1f/run, budget %d", got, max)
	}
}

// TestPALAPSteadyStateAllocs pins the steady-state allocation count of a
// full PALAP run: the returned Schedule shell and its Start slice (the
// reversed graph, the reversed run's starts and all conversion buffers
// live in the arena).
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
	const max = 2 // Schedule struct + Start slice
	if got > max {
		t.Fatalf("PALAP steady state allocates %.1f/run, budget %d", got, max)
	}
}

// TestWindowsSteadyStateAllocs pins the window derivation: one pasap +
// one palap pair plus the returned window slice.
func TestWindowsSteadyStateAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	if _, err := Windows(g, bind, 40, opts); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := Windows(g, bind, 40, opts); err != nil {
			t.Fatal(err)
		}
	})
	const max = 5 // pasap (2) + palap (2) + the []Window result
	if got > max {
		t.Fatalf("Windows steady state allocates %.1f/run, budget %d", got, max)
	}
}

// TestReplayedPairAllocs pins a steady-state override pair that replays
// a reference (PASAPStarts and PALAPStarts into the caller's buffers) at
// zero allocations: the patched order, the re-ranked nodes and the
// reversed run's starts all live in the arena.
func TestReplayedPairAllocs(t *testing.T) {
	g := bench.Elliptic()
	opts, bind := hotOptions(g, 20)
	ws, err := Windows(g, bind, 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ref Reference
	if err := ref.Reset(g, bind, opts, ws); err != nil {
		t.Fatal(err)
	}
	// Override a multiplier with the serial module: a longer delay and a
	// lower power, so the order is patched.
	v := g.NodesOf(cdfg.Mul)[0]
	opts.Delays = append([]int(nil), opts.Delays...)
	opts.Powers = append([]float64(nil), opts.Powers...)
	opts.Delays[v], opts.Powers[v] = 4, 2.7
	opts.Ref, opts.RefNode = &ref, v
	early, late := make([]int, g.N()), make([]int, g.N())
	pair := func() {
		if err := PASAPStarts(g, bind, opts, early); err != nil {
			t.Fatal(err)
		}
		if err := PALAPStarts(g, bind, 40, opts, late); err != nil {
			t.Fatal(err)
		}
	}
	pair()
	if got := testing.AllocsPerRun(50, pair); got != 0 {
		t.Fatalf("replayed override pair allocates %.1f/run, budget 0", got)
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

// BenchmarkOverridePair times the override pairs of one synthesis
// iteration on elliptic under Table 1 at 0.8 × the ASAP peak and the ASAP
// length + 3, a quarter of the nodes fixed: every free node under every
// module of its operation, replayed against the base pair ("replay") and
// run in full ("full").
func BenchmarkOverridePair(b *testing.B) {
	g := bench.Elliptic()
	lib := library.Table1()
	bind := UniformFastest(lib)
	asap, err := ASAP(g, bind)
	if err != nil {
		b.Fatal(err)
	}
	deadline := asap.Length() + 3
	opts, _ := hotOptions(g, 0.8*asap.PeakPower())
	for i := 0; i < g.N(); i += 4 {
		opts.FixedStarts[i] = asap.Start[i]
	}
	ws, err := Windows(g, bind, deadline, opts)
	if err != nil {
		b.Fatal(err)
	}
	var ref Reference
	if err := ref.Reset(g, bind, opts, ws); err != nil {
		b.Fatal(err)
	}
	base := opts
	opts.Delays = slices.Clone(base.Delays)
	opts.Powers = slices.Clone(base.Powers)
	early, late := make([]int, g.N()), make([]int, g.N())
	for _, mode := range []string{"replay", "full"} {
		opts.Ref = nil
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, n := range g.Nodes() {
					if opts.FixedStarts[n.ID] >= 0 {
						continue
					}
					for _, mi := range lib.Candidates(n.Op) {
						m := lib.Module(mi)
						opts.Delays[n.ID], opts.Powers[n.ID] = m.Delay, m.Power
						if mode == "replay" {
							opts.Ref, opts.RefNode = &ref, n.ID
						}
						_ = PASAPStarts(g, bind, opts, early)
						_ = PALAPStarts(g, bind, deadline, opts, late)
						opts.Delays[n.ID], opts.Powers[n.ID] = base.Delays[n.ID], base.Powers[n.ID]
					}
				}
			}
		})
	}
}
