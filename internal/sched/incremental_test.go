package sched

import (
	"errors"
	"math/rand"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/library"
)

var incrBenchmarks = []string{"hal", "cosine", "elliptic", "fir16", "ar", "diffeq2", "fft8"}

func sameSchedule(t *testing.T, label string, want, got *Schedule) {
	t.Helper()
	for i := range want.Start {
		if want.Start[i] != got.Start[i] {
			t.Fatalf("%s: start[%d] = %d, want %d", label, i, got.Start[i], want.Start[i])
		}
	}
}

// pins returns the pin slice that replays every clean node at its start in
// prev and leaves dirty nodes to the full placement search.
func pins(prev *Schedule, dirty []bool) []int {
	return pinsFrom(nil, len(prev.Start), func(i int) int { return prev.Start[i] }, dirty)
}

// TestPinnedAllDirtyMatchesFull: with every node dirty the pinned
// scheduler degenerates to the full one, on every benchmark, with and
// without a power cap.
func TestPinnedAllDirtyMatchesFull(t *testing.T) {
	lib := library.Table1()
	for _, name := range incrBenchmarks {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b := UniformFastest(lib)
		asap, err := ASAP(g, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, pmax := range []float64{0, asap.PeakPower() * 0.7} {
			opts := Options{PowerMax: pmax}
			full, err := PASAP(g, b, opts)
			if err != nil {
				t.Fatalf("%s P<=%g: %v", name, pmax, err)
			}
			dirty := make([]bool, g.N())
			for i := range dirty {
				dirty[i] = true
			}
			inc, err := pasapPinned(g, b, opts, pins(full, dirty), 0)
			if err != nil {
				t.Fatalf("%s P<=%g: dirty run: %v", name, pmax, err)
			}
			sameSchedule(t, name, full, inc)
		}
	}
}

// TestDirtySubsetMatchesFull pins random clean subsets at the full run's
// own placements: the dirty-subset schedulers must reproduce the full
// result exactly, for PASAP, PALAP and the combined window derivation.
func TestDirtySubsetMatchesFull(t *testing.T) {
	lib := library.Table1()
	rng := rand.New(rand.NewSource(7))
	for _, name := range incrBenchmarks {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b := UniformFastest(lib)
		asap, err := ASAP(g, b)
		if err != nil {
			t.Fatal(err)
		}
		deadline := asap.Length() + 3
		for _, pmax := range []float64{0, asap.PeakPower() * 0.7} {
			opts := Options{PowerMax: pmax}
			early, err := PASAP(g, b, opts)
			if err != nil {
				t.Fatalf("%s P<=%g: pasap: %v", name, pmax, err)
			}
			full, err := Windows(g, b, deadline, opts)
			if err != nil {
				// Some benchmark/cap pairs are genuinely infeasible at this
				// deadline; the equivalence claim is vacuous there.
				continue
			}
			late, err := PALAP(g, b, deadline, opts)
			if err != nil {
				t.Fatalf("%s P<=%g: palap: %v", name, pmax, err)
			}
			for trial := 0; trial < 10; trial++ {
				dirty := make([]bool, g.N())
				for i := range dirty {
					dirty[i] = rng.Intn(3) == 0
				}
				e, err := pasapPinned(g, b, opts, pins(early, dirty), 0)
				if err != nil {
					t.Fatalf("%s P<=%g trial %d: pasap dirty: %v", name, pmax, trial, err)
				}
				sameSchedule(t, name+"/pasap", early, e)
				l, err := palapPinned(g, b, deadline, opts, pins(late, dirty))
				if err != nil {
					t.Fatalf("%s P<=%g trial %d: palap dirty: %v", name, pmax, trial, err)
				}
				sameSchedule(t, name+"/palap", late, l)
				ws, err := WindowsDirty(g, b, deadline, opts, full, dirty)
				if err != nil {
					t.Fatalf("%s P<=%g trial %d: windows dirty: %v", name, pmax, trial, err)
				}
				for i := range ws {
					if ws[i] != full[i] {
						t.Fatalf("%s P<=%g trial %d: window[%d] = %+v, want %+v", name, pmax, trial, i, ws[i], full[i])
					}
				}
			}
		}
	}
}

// TestPinnedStaleDetection corrupts the previous placement of a clean
// node and requires the replay to fail with ErrStale rather than silently
// diverge from the full scheduler.
func TestPinnedStaleDetection(t *testing.T) {
	lib := library.Table1()
	g, err := bench.ByName("hal")
	if err != nil {
		t.Fatal(err)
	}
	b := UniformFastest(lib)
	full, err := PASAP(g, b, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]bool, g.N()) // nothing dirty: every node replayed

	// Shift one interior node one cycle late: in the unconstrained case
	// pasap always places at the precedence bound, so the replay must
	// detect the deviation.
	for i := 0; i < g.N(); i++ {
		if full.Start[i] == 0 {
			continue
		}
		prev := &Schedule{Start: append([]int(nil), full.Start...)}
		prev.Start[i]++
		if _, err := pasapPinned(g, b, Options{}, pins(prev, dirty), 0); !errors.Is(err, ErrStale) {
			t.Fatalf("late pin of node %d: err = %v, want ErrStale", i, err)
		}
		break
	}

	// Shift a node before its precedence bound: replay must reject it too.
	for i := 0; i < g.N(); i++ {
		if len(g.Preds(cdfg.NodeID(i))) == 0 {
			continue
		}
		prev := &Schedule{Start: append([]int(nil), full.Start...)}
		prev.Start[i] = 0
		if full.Start[i] == 0 {
			continue
		}
		if _, err := pasapPinned(g, b, Options{}, pins(prev, dirty), 0); !errors.Is(err, ErrStale) {
			t.Fatalf("early pin of node %d: err = %v, want ErrStale", i, err)
		}
		break
	}
}

// TestWindowsDirtyWithFixed exercises the dirty derivation under the
// synthesizer's real usage: some nodes fixed (committed), a power cap, and
// a dirty subset around one fixed node.
func TestWindowsDirtyWithFixed(t *testing.T) {
	lib := library.Table1()
	for _, name := range []string{"hal", "elliptic"} {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b := UniformFastest(lib)
		asap, err := ASAP(g, b)
		if err != nil {
			t.Fatal(err)
		}
		deadline := asap.Length() + 3
		opts := Options{PowerMax: asap.PeakPower() * 0.8}
		base, err := Windows(g, b, deadline, opts)
		if err != nil {
			t.Fatalf("%s: base windows: %v", name, err)
		}
		// Fix node 0 at its early start, as the synthesizer does on commit.
		opts.FixedStarts = fixOne(g.N(), 0, base[0].Early)
		full, err := Windows(g, b, deadline, opts)
		if err != nil {
			t.Fatalf("%s: fixed windows: %v", name, err)
		}
		dirty := make([]bool, g.N())
		for i := range dirty {
			dirty[i] = i%2 == 0
		}
		ws, err := WindowsDirty(g, b, deadline, opts, full, dirty)
		if err != nil {
			t.Fatalf("%s: dirty windows: %v", name, err)
		}
		for i := range ws {
			if ws[i] != full[i] {
				t.Fatalf("%s: window[%d] = %+v, want %+v", name, i, ws[i], full[i])
			}
		}
	}
}
