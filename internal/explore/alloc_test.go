//go:build !race

// Allocation-regression tests for BenchmarkPareto. AllocsPerRun counts are
// not meaningful under the race detector, so these run in the race-free
// lane (make test-alloc).

package explore

import (
	"fmt"
	"testing"
)

// TestParetoAllocs holds every BenchmarkPareto exploration to 20% over the
// lowest allocs/op recorded for it.
func TestParetoAllocs(t *testing.T) {
	for _, pin := range paretoPins {
		g, lib, cfg := paretoBenchGrid(t, pin.name)
		for _, workers := range paretoBenchWorkers {
			recorded := pin.allocs1
			if workers > 1 {
				recorded = pin.allocs4
			}
			cfg.Workers = workers
			t.Run(fmt.Sprintf("%s/workers=%d", pin.name, workers), func(t *testing.T) {
				got := testing.AllocsPerRun(5, func() {
					if _, err := ExplorePareto(g, lib, cfg); err != nil {
						t.Fatal(err)
					}
				})
				if max := float64(recorded * 6 / 5); got > max {
					t.Fatalf("ExplorePareto allocates %.0f/op, budget %.0f", got, max)
				}
				t.Logf("ExplorePareto: %.0f allocs/op", got)
			})
		}
	}
}
