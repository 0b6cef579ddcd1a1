package sched

import (
	"math/rand"
	"testing"

	"pchls/internal/gen"
)

// FuzzWindows holds the window derivation to its contract on random
// graphs: with a random subset of nodes fixed through FixedStarts and a
// random power cap, Windows is exactly the (PASAP, PALAP) start pair, both
// schedules are valid under the cap and the deadline, every fixed node
// starts where it was fixed, and an arena — fresh, or warmed by a run
// under other options — changes nothing. Windows may legitimately come
// out inverted (TestWindowsMatchExhaustiveFeasibility), so Early <= Late
// is not asserted.
func FuzzWindows(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(128), uint8(2), uint8(3), false)
	f.Add(int64(42), uint8(20), uint8(0), uint8(0), uint8(1), true)
	f.Add(int64(7), uint8(30), uint8(255), uint8(5), uint8(2), false)
	f.Add(int64(-9), uint8(3), uint8(40), uint8(1), uint8(4), true)
	f.Add(int64(2026), uint8(14), uint8(90), uint8(7), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, nodes, capPct, slack, fixEvery uint8, warm bool) {
		g := gen.Graph(seed, gen.GraphConfig{Nodes: 1 + int(nodes)%40})
		lib := gen.Library(seed, gen.LibraryConfig{ModulesPerOp: 2, DelayMax: 3})
		bind := UniformFastest(lib)
		asap, err := ASAP(g, bind)
		if err != nil {
			t.Fatal(err)
		}
		// Cap: capPct percent of the way from the largest single-node draw
		// (the tightest feasible cap) to the ASAP peak; 0 = unconstrained.
		var opts Options
		if capPct > 0 {
			lo := 0.0
			for _, p := range asap.Power {
				lo = max(lo, p)
			}
			opts.PowerMax = lo + (asap.PeakPower()-lo)*float64(capPct)/255
		}
		early, err := PASAP(g, bind, opts)
		if err != nil {
			t.Fatalf("pasap under a feasible cap: %v", err)
		}
		deadline := early.Length() + int(slack)%8
		// Fix a random subset at its pasap starts, as the synthesizer
		// commits operations at feasible placements.
		rng := rand.New(rand.NewSource(seed))
		opts.FixedStarts = make([]int, g.N())
		for i := range opts.FixedStarts {
			opts.FixedStarts[i] = -1
			if fixEvery > 0 && rng.Intn(int(fixEvery)%8+1) == 0 {
				opts.FixedStarts[i] = early.Start[i]
			}
		}

		ws, err := Windows(g, bind, deadline, opts)
		pasap, perr := PASAP(g, bind, opts)
		palap, lerr := PALAP(g, bind, deadline, opts)
		if pairOK := perr == nil && pasap.Length() <= deadline && lerr == nil; (err == nil) != pairOK {
			t.Fatalf("Windows err = %v, but pasap err = %v, palap err = %v", err, perr, lerr)
		}
		if err != nil {
			return // the fixed subset left no feasible pair
		}
		for i, w := range ws {
			if w.Early != pasap.Start[i] || w.Late != palap.Start[i] {
				t.Fatalf("window[%d] = %+v, want {%d %d}", i, w, pasap.Start[i], palap.Start[i])
			}
		}
		for _, s := range []*Schedule{pasap, palap} {
			if err := s.Validate(opts.PowerMax, deadline); err != nil {
				t.Fatal(err)
			}
			for i, fs := range opts.FixedStarts {
				if fs >= 0 && s.Start[i] != fs {
					t.Fatalf("fixed node %d starts at %d, want %d", i, s.Start[i], fs)
				}
			}
		}

		opts.Arena = NewArena(g)
		if warm {
			// Leave the arena's buffers sized and filled by another run.
			if _, err := Windows(g, bind, deadline+3, Options{Arena: opts.Arena}); err != nil {
				t.Fatalf("unconstrained windows: %v", err)
			}
		}
		for run := 0; run < 2; run++ {
			aws, err := Windows(g, bind, deadline, opts)
			if err != nil {
				t.Fatalf("arena run %d: %v", run, err)
			}
			for i := range aws {
				if aws[i] != ws[i] {
					t.Fatalf("arena run %d: window[%d] = %+v, want %+v", run, i, aws[i], ws[i])
				}
			}
		}
	})
}
