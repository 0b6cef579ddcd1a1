package sched

import (
	"math/rand"
	"slices"
	"testing"

	"pchls/internal/gen"
)

// TestArenaProfileMatchesFresh holds the arena's partial profile clearing
// (only the cycles the last run wrote) to fresh profiles: one arena serves
// a sequence of pasap and palap runs with deadlines up to 4000 cycles and
// nodes fixed anywhere in them, so runs write far from each other's dirty
// prefixes and leave spans behind, and every run must give the starts, or
// the error text, of the same run without an arena. After each run the
// cycles the next run would clear must be all the profile holds.
func TestArenaProfileMatchesFresh(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := gen.Graph(seed, gen.GraphConfig{Nodes: 12})
		lib := gen.Library(seed, gen.LibraryConfig{ModulesPerOp: 2, DelayMax: 4})
		bind := UniformFastest(lib)
		asap, err := ASAP(g, bind)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		a := NewArena(g)
		for run := 0; run < 40; run++ {
			deadline := asap.Length() + rng.Intn(4000)
			opts := Options{PowerMax: asap.PeakPower() * (0.5 + rng.Float64()), FixedStarts: make([]int, g.N())}
			for i := range opts.FixedStarts {
				opts.FixedStarts[i] = -1
				if rng.Intn(4) == 0 {
					opts.FixedStarts[i] = rng.Intn(deadline - asap.Delay[i] + 1)
				}
			}
			var fresh, got *Schedule
			var ferr, gerr error
			if run%2 == 0 {
				fresh, ferr = PASAP(g, bind, opts)
				opts.Arena = a
				got, gerr = PASAP(g, bind, opts)
			} else {
				fresh, ferr = PALAP(g, bind, deadline, opts)
				opts.Arena = a
				got, gerr = PALAP(g, bind, deadline, opts)
			}
			if errText(gerr) != errText(ferr) {
				t.Fatalf("seed %d run %d: arena error %q, fresh %q", seed, run, errText(gerr), errText(ferr))
			}
			if ferr == nil && !slices.Equal(got.Start, fresh.Start) {
				t.Fatalf("seed %d run %d: arena starts %v, fresh %v", seed, run, got.Start, fresh.Start)
			}
			// What the next run clears is everything this one wrote.
			for c, p := range a.profileFor(cap(a.profile), nil) {
				if p != 0 {
					t.Fatalf("seed %d run %d: cycle %d keeps %g after clearing", seed, run, c, p)
				}
			}
		}
	}
}
