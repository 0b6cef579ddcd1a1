package sched

import (
	"math/rand"
	"testing"

	"pchls/internal/gen"
)

// FuzzWindowsDirty holds the pinned re-derivation to its contract on
// random graphs: with a random subset of nodes fixed through FixedStarts,
// a random power cap and a random dirty mask, replaying the clean nodes
// at the full runs' own starts must reproduce the full runs exactly —
// WindowsDirty over the full windows equals Windows, and the pinned
// pasap/palap replays equal PASAP/PALAP. This is the one base
// re-derivation the synthesizer's exhaustive regime uses.
func FuzzWindowsDirty(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(128), uint8(2), uint8(3), false)
	f.Add(int64(42), uint8(20), uint8(0), uint8(0), uint8(1), true)
	f.Add(int64(7), uint8(30), uint8(255), uint8(5), uint8(2), false)
	f.Add(int64(-9), uint8(3), uint8(40), uint8(1), uint8(4), true)
	f.Add(int64(2026), uint8(14), uint8(90), uint8(7), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed int64, nodes, capPct, slack, fixEvery uint8, arena bool) {
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
		if arena {
			opts.Arena = NewArena(g)
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
		full, err := Windows(g, bind, deadline, opts)
		if err != nil {
			return // the fixed subset left no feasible pair; nothing to replay
		}
		pasap, err := PASAP(g, bind, opts)
		if err != nil {
			t.Fatalf("pasap after Windows succeeded: %v", err)
		}
		palap, err := PALAP(g, bind, deadline, opts)
		if err != nil {
			t.Fatalf("palap after Windows succeeded: %v", err)
		}
		dirty := make([]bool, g.N())
		for i := range dirty {
			dirty[i] = rng.Intn(3) == 0
		}

		ws, err := WindowsDirty(g, bind, deadline, opts, full, dirty)
		if err != nil {
			t.Fatalf("windows dirty: %v", err)
		}
		for i := range ws {
			if ws[i] != full[i] {
				t.Fatalf("window[%d] = %+v, want %+v", i, ws[i], full[i])
			}
		}
		e, err := pasapPinned(g, bind, opts, pins(pasap, dirty), 0)
		if err != nil {
			t.Fatalf("pinned pasap: %v", err)
		}
		sameSchedule(t, "pasap", pasap, e)
		l, err := palapPinned(g, bind, deadline, opts, pins(palap, dirty))
		if err != nil {
			t.Fatalf("pinned palap: %v", err)
		}
		sameSchedule(t, "palap", palap, l)
	})
}
