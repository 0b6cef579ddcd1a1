//go:build !race

// Allocation-regression tests for BenchmarkSynthesize and
// BenchmarkAnytimePortfolio. AllocsPerRun counts are not meaningful under
// the race detector, so these run in the race-free lane (make test-alloc).

package pchls

import "testing"

// allocBudget is the allocs/op a pinned point may reach: 20% over the
// lowest count recorded for it.
func allocBudget(recorded int) float64 { return float64(recorded * 6 / 5) }

// TestSynthesizeAllocs holds every BenchmarkSynthesize point to its
// allocation budget.
func TestSynthesizeAllocs(t *testing.T) {
	lib := Table1()
	for _, pin := range synthesizePins {
		t.Run(pin.name, func(t *testing.T) {
			g := MustBenchmark(pin.name)
			cons := bindingPoint(t, g, lib)
			got := testing.AllocsPerRun(5, func() {
				if _, err := Synthesize(g, lib, cons, Config{}); err != nil {
					t.Fatal(err)
				}
			})
			if max := allocBudget(pin.allocs); got > max {
				t.Fatalf("Synthesize allocates %.0f/op, budget %.0f", got, max)
			}
			t.Logf("Synthesize: %.0f allocs/op", got)
		})
	}
}

// TestAnytimePortfolioAllocs holds every BenchmarkAnytimePortfolio graph
// to its allocation budget.
func TestAnytimePortfolioAllocs(t *testing.T) {
	lib := Table1()
	for _, pin := range portfolioPins {
		t.Run(pin.name, func(t *testing.T) {
			g := MustBenchmark(pin.name)
			cons := bindingPoint(t, g, lib)
			got := testing.AllocsPerRun(2, func() {
				if _, err := SynthesizePortfolio(g, lib, cons, portfolioBenchConfig); err != nil {
					t.Fatal(err)
				}
			})
			if max := allocBudget(pin.allocs); got > max {
				t.Fatalf("SynthesizePortfolio allocates %.0f/op, budget %.0f", got, max)
			}
			t.Logf("SynthesizePortfolio: %.0f allocs/op", got)
		})
	}
}
