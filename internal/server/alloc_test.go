//go:build !race

// Allocation-regression tests for BenchmarkServerSynthesize. AllocsPerRun
// counts are not meaningful under the race detector, so these run in the
// race-free lane (make test-alloc).

package server

import "testing"

// TestServerSynthesizeAllocs holds the cold (fresh server, cache miss
// running the full SynthesizeBest ladder) and warm (cache hit) round-trips
// of BenchmarkServerSynthesize to 20% over the lowest allocs/op recorded
// for them: 8697 and 309.
func TestServerSynthesizeAllocs(t *testing.T) {
	cold := testing.AllocsPerRun(5, func() { postServerBench(t, New(Config{})) })
	s := New(Config{})
	postServerBench(t, s)
	warm := testing.AllocsPerRun(20, func() { postServerBench(t, s) })
	for _, c := range []struct {
		name     string
		got      float64
		recorded int
	}{{"cold", cold, 8697}, {"warm", warm, 309}} {
		if max := float64(c.recorded * 6 / 5); c.got > max {
			t.Errorf("%s synthesize allocates %.0f/op, budget %.0f", c.name, c.got, max)
		}
		t.Logf("%s synthesize: %.0f allocs/op", c.name, c.got)
	}
}
