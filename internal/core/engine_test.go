package core

import (
	"testing"

	"pchls/internal/bench"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// TestEngineReducesSchedulerRuns checks the window cache's reason to
// exist: under a binding power cap, the cached run must perform strictly
// fewer full scheduler runs than its coldWindows reference, which drops
// the cache before every derivation, with the savings visible in the
// cache counters.
func TestEngineReducesSchedulerRuns(t *testing.T) {
	lib := library.Table1()
	for _, name := range []string{"hal", "elliptic", "fft8"} {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		asap, err := sched.ASAP(g, sched.UniformFastest(lib))
		if err != nil {
			t.Fatal(err)
		}
		cons := Constraints{Deadline: asap.Length() + 3, PowerMax: asap.PeakPower() * 0.8}
		inc, err := Synthesize(g, lib, cons, Config{})
		if err != nil {
			t.Fatalf("%s: cached: %v", name, err)
		}
		cold, err := Synthesize(g, lib, cons, Config{coldWindows: true})
		if err != nil {
			t.Fatalf("%s: cold: %v", name, err)
		}
		if inc.Stats.SchedulerRuns >= cold.Stats.SchedulerRuns {
			t.Errorf("%s: cached run did %d full runs, cold %d — no savings",
				name, inc.Stats.SchedulerRuns, cold.Stats.SchedulerRuns)
		}
		if inc.Stats.WindowCacheHits == 0 {
			t.Errorf("%s: cached run had zero window cache hits", name)
		}
		if cold.Stats.IncrementalRuns != 0 || cold.Stats.WindowCacheHits != 0 {
			t.Errorf("%s: cold run reported cached work: %+v", name, cold.Stats)
		}
		t.Logf("%s: full runs %d -> %d (cached: %d hits, %d misses)",
			name, cold.Stats.SchedulerRuns, inc.Stats.SchedulerRuns,
			inc.Stats.WindowCacheHits, inc.Stats.WindowCacheMisses)
	}
}

// TestEngineProfileAndReservations white-boxes the maintained
// bookkeeping: after each commit of a real synthesis prefix, and after an
// uncommit, the profile and the reservation lists must pass
// auditCommitted (equal to a from-scratch rebuild). The audit itself must
// panic on a corrupted profile or reservation list.
func TestEngineProfileAndReservations(t *testing.T) {
	lib := library.Table1()
	g := bench.HAL()
	cons := Constraints{Deadline: 17, PowerMax: 20}
	st, err := newState(g, lib, cons, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.refineInitialModules(); err != nil {
		t.Fatal(err)
	}
	audit := func() (failure any) {
		defer func() { failure = recover() }()
		st.auditCommitted()
		return nil
	}
	check := func(step int) {
		if r := audit(); r != nil {
			t.Fatalf("step %d: %v", step, r)
		}
	}
	var last Decision
	for step := 0; step < 5; step++ {
		dec, ok := st.bestDecision()
		if !ok {
			t.Fatalf("step %d: no decision", step)
		}
		st.commit(dec)
		last = dec
		check(step)
	}
	st.uncommit(last)
	check(-1)

	st.profile[last.Start] += 0.5
	if audit() == nil {
		t.Error("audit accepted a corrupted profile")
	}
	st.profile[last.Start] -= 0.5
	st.resv[0][0].e++
	if audit() == nil {
		t.Error("audit accepted a corrupted reservation list")
	}
}

// TestStatsAdd checks the field-wise aggregation used by the sweep
// surfaces.
func TestStatsAdd(t *testing.T) {
	a := Stats{SchedulerRuns: 1, IncrementalRuns: 2, WindowCacheHits: 3, WindowCacheMisses: 4,
		WindowInvalidations: 5, FullInvalidations: 6, Fallbacks: 7, ProfileProbes: 8, SDCDerivations: 9}
	b := Stats{SchedulerRuns: 10, IncrementalRuns: 20, WindowCacheHits: 30, WindowCacheMisses: 40,
		WindowInvalidations: 50, FullInvalidations: 60, Fallbacks: 70, ProfileProbes: 80, SDCDerivations: 90}
	got := a.Add(b)
	want := Stats{SchedulerRuns: 11, IncrementalRuns: 22, WindowCacheHits: 33, WindowCacheMisses: 44,
		WindowInvalidations: 55, FullInvalidations: 66, Fallbacks: 77, ProfileProbes: 88, SDCDerivations: 99}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
	if s := got.String(); s == "" {
		t.Fatal("String() returned empty")
	}
}
