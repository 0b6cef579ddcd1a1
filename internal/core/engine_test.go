package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
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

// TestReusedProbeMatchesFullRun is the differential of the post-commit
// probe reuse (probeCovers): at every commit that skips the probe, a full
// pasap of the committed state, on its own arena, must place every node
// where the reused probe does. It covers the classic catalogue (every
// paper benchmark under Table 1 and the 3-level DVS library at T =
// cp+{0,3,8} and caps {0.6, 0.8, 0} × the ASAP peak, on the exhaustive
// derivation), the scaling tiers (the SDC derivation, decomposed where the
// tier is large) and the 300 random instances of
// TestColdWindowsRandomDifferential under every search variant.
func TestReusedProbeMatchesFullRun(t *testing.T) {
	var mu sync.Mutex
	label, reused := "", 0
	probeReused = func(st *state, probe *sched.Schedule) {
		opts := st.schedOpts()
		opts.Arena = nil
		full, err := sched.PASAP(st.g, st.baseBind, opts)
		mu.Lock()
		defer mu.Unlock()
		reused++
		if err != nil {
			t.Errorf("%s: reused a probe where the full run fails: %v", label, err)
		} else if !slices.Equal(full.Start, probe.Start) {
			t.Errorf("%s: reused probe starts %v, full run %v", label, probe.Start, full.Start)
		}
	}
	t.Cleanup(func() { probeReused = nil })
	synth := func(l string, g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config) {
		label = l
		Synthesize(g, lib, cons, cfg)
	}

	for bi, name := range goldenBenchmarks {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dvs, err := gen.Library(int64(1000+bi), gen.LibraryConfig{Levels: 3}).Expand()
		if err != nil {
			t.Fatal(err)
		}
		for li, lib := range []*library.Library{library.Table1(), dvs} {
			asap, err := sched.ASAP(g, sched.UniformFastest(lib))
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range []int{0, 3, 8} {
				for _, f := range []float64{0.6, 0.8, 0} {
					cons := Constraints{Deadline: asap.Length() + off, PowerMax: f * asap.PeakPower()}
					synth(fmt.Sprintf("%s lib%d T=%d P<=%g", name, li, cons.Deadline, cons.PowerMax),
						g, lib, cons, Config{windows: windowsExhaustive})
				}
			}
		}
	}
	classic := reused
	for _, tier := range scalingTiers {
		// scalingInstance synthesizes the tier's point to verify it.
		label = tier.name
		scalingInstance(t, tier)
	}
	scaling := reused - classic
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := coldDiffInstance(seed, int(seed), int(seed/40), math.Sqrt(rng.Float64()), math.Sqrt(rng.Float64()))
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		for ci, cfg := range coldDiffConfigs(seed) {
			synth(fmt.Sprintf("seed %d config %d", seed, ci), inst.Graph, inst.Library, cons, cfg)
		}
	}
	t.Logf("reused probes checked: %d classic, %d scaling, %d random", classic, scaling, reused-classic-scaling)
	if classic == 0 || scaling == 0 || reused-classic-scaling == 0 {
		t.Fatal("a family of runs reused no probe; the differential checks nothing there")
	}
}

// TestEngineProfile white-boxes the maintained bookkeeping: after each
// commit of a real synthesis prefix, and after an uncommit, the profile
// must pass auditCommitted (equal to a from-scratch rebuild). The audit
// itself must panic on a corrupted profile.
func TestEngineProfile(t *testing.T) {
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
