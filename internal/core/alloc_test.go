//go:build !race

// Allocation-regression tests for the synthesize hot path. AllocsPerRun
// counts are not meaningful under the race detector, so these run in the
// race-free CI lane only.

package core

import (
	"runtime"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// warmState returns a state of the named benchmark under lib at the ASAP
// length + slack and 0.8 × the ASAP peak, advanced into the engine's warm
// regime: six committed decisions with their post-commit probes, exactly
// as Synthesize drives the loop.
func warmState(t *testing.T, name string, lib *library.Library, slack int) *state {
	t.Helper()
	g, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	asap, err := sched.ASAP(g, sched.UniformFastest(lib))
	if err != nil {
		t.Fatal(err)
	}
	cons := Constraints{Deadline: asap.Length() + slack, PowerMax: asap.PeakPower() * 0.8}
	st, err := newState(g, lib, cons, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.refineInitialModules(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		dec, ok := st.bestDecision()
		if !ok {
			t.Fatalf("step %d: no decision", i)
		}
		st.commit(dec)
		probe, err := st.currentPASAP()
		if err != nil {
			t.Fatal(err)
		}
		st.noteProbe(dec, probe)
	}
	if !st.eng.warm {
		t.Fatal("engine not warm after 6 commits")
	}
	return st
}

// TestBestDecisionSteadyStateAllocs pins the allocation count of one warm
// bestDecision iteration on the largest and the smallest paper benchmark:
// the per-candidate override cache with its slab, the scheduler
// arena and the lookup tables must hold, so a repeated iteration
// allocates nothing — the base palap run, when the last commit did not
// leave the base pair valid, writes into the engine's buffer.
func TestBestDecisionSteadyStateAllocs(t *testing.T) {
	for _, name := range []string{"elliptic", "hal"} {
		t.Run(name, func(t *testing.T) {
			st := warmState(t, name, library.Table1(), 3)
			got := testing.AllocsPerRun(20, func() {
				if _, ok := st.bestDecision(); !ok {
					t.Fatal("no decision")
				}
			})
			const max = 0
			if got > max {
				t.Fatalf("warm bestDecision allocates %.1f/run, budget %d", got, max)
			}
			t.Logf("warm bestDecision: %.1f allocs/run", got)
		})
	}
}

// TestOverridePairSteadyStateAllocs pins a warm override pair: once the
// slab is sized and the reference order memoized, computeEntry replays
// the base pair into its slab slot and allocates nothing. It runs on
// elliptic under the expanded 3-level DVS library of the classic
// benchmark workload, whose voltage levels change delays.
func TestOverridePairSteadyStateAllocs(t *testing.T) {
	dvs, err := gen.Library(1002, gen.LibraryConfig{Levels: 3}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	st := warmState(t, "elliptic", dvs, 8)
	opts := st.schedOpts()
	if !st.eng.refOK {
		t.Fatal("no replay reference")
	}
	// A feasible override that changes the node's delay, so the replay
	// patches the reference order.
	v, j := cdfg.None, -1
	for i, c := range st.committed {
		for k, m := range st.cand[i] {
			if v == cdfg.None && !c && st.lib.Module(m).Delay != st.delays[i] &&
				st.computeEntry(cdfg.NodeID(i), k, opts).earlyStart != nil {
				v, j = cdfg.NodeID(i), k
			}
		}
	}
	if v == cdfg.None {
		t.Fatal("no feasible override that changes a delay")
	}
	got := testing.AllocsPerRun(50, func() { st.computeEntry(v, j, opts) })
	if got != 0 {
		t.Fatalf("warm override pair allocates %.1f/run, budget 0", got)
	}
}

// bytesPerRun is testing.AllocsPerRun for allocated bytes: the average
// heap bytes one call of f allocates, after one warm-up call, with
// GOMAXPROCS at 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestFirstDecisionAllocs pins the bytes a synthesis allocates before
// its first commitment — newState, refineInitialModules and the first
// bestDecision — on cosine under the expanded 3-level DVS library of the
// classic benchmark workload, at its ASAP length + 3 and 0.8 × the ASAP
// peak. That is the per-state table size: the lookup tables, the window
// cache with one entry per (node, candidate module) and the start slab
// the first iteration's override runs fill. The budget is 1.2 × the
// measured value.
func TestFirstDecisionAllocs(t *testing.T) {
	g, err := bench.ByName("cosine")
	if err != nil {
		t.Fatal(err)
	}
	lib, err := gen.Library(1001, gen.LibraryConfig{Levels: 3}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	asap, err := sched.ASAP(g, sched.UniformFastest(lib))
	if err != nil {
		t.Fatal(err)
	}
	cons := Constraints{Deadline: asap.Length() + 3, PowerMax: 0.8 * asap.PeakPower()}
	got := bytesPerRun(5, func() {
		st, err := newState(g, lib, cons, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.refineInitialModules(); err != nil {
			t.Fatal(err)
		}
		if _, ok := st.bestDecision(); !ok {
			t.Fatal("no decision")
		}
	})
	const measured = 381672
	if max := float64(measured * 6 / 5); got > max {
		t.Fatalf("first decision allocates %.0f B/run, budget %.0f", got, max)
	}
	t.Logf("first decision: %.0f B/run", got)
}
