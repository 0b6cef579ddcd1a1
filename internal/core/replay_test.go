package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// requireEntriesMatchFullRuns prepares st's current iteration and holds
// every (uncommitted node, candidate module) to a cold full pair: PASAP
// and PALAP run in full, over the oracle's own arena, under the same
// options and override. The window the decision loop reads (st.window:
// the base window, a cached entry or a fresh one) must equal the pair's
// window, and the entry computeEntry recomputes — the replayed runs into
// the slab, whenever the base pair is current — must equal its verdict,
// window and both start arrays. It returns the number of entries
// compared.
func requireEntriesMatchFullRuns(t *testing.T, label string, st *state, oracle *sched.Arena) int {
	t.Helper()
	st.prepareWindows()
	n := 0
	for i, c := range st.committed {
		if c {
			continue
		}
		v := cdfg.NodeID(i)
		for j, mi := range st.cand[v] {
			read, readOK := st.window(v, j)
			got := st.computeEntry(v, j, st.opts)
			m := st.lib.Module(mi)
			o := st.opts
			o.Arena = oracle
			o.Delays, o.Powers = slices.Clone(st.delays), slices.Clone(st.powers)
			o.Delays[v], o.Powers[v] = m.Delay, m.Power
			var early, late *sched.Schedule
			feasible := st.cons.PowerMax <= 0 || m.Power <= st.cons.PowerMax+1e-9
			if feasible {
				var err error
				early, err = sched.PASAP(st.g, st.baseBind, o)
				feasible = err == nil && early.Length() <= st.cons.Deadline
			}
			if feasible {
				var err error
				late, err = sched.PALAP(st.g, st.baseBind, st.cons.Deadline, o)
				feasible = err == nil
			}
			what := fmt.Sprintf("%s: %d decisions: override %s -> %s", label, len(st.decisions), st.g.Node(v).Name, m.Name)
			if !feasible {
				if readOK || got.ok || got.earlyStart != nil {
					t.Fatalf("%s: entry %+v, but the full pair is infeasible", what, got)
				}
				continue
			}
			w := sched.Window{Early: early.Start[v], Late: late.Start[v]}
			if readOK != (w.Width() >= 1) || (readOK && read != w) {
				t.Fatalf("%s: decision loop reads ok=%v window %+v, full pair window %+v", what, readOK, read, w)
			}
			if got.ok != (w.Width() >= 1) || (got.ok && got.w != w) {
				t.Fatalf("%s: entry ok=%v window %+v, full pair window %+v", what, got.ok, got.w, w)
			}
			if !slices.Equal(got.earlyStart, early.Start) || !slices.Equal(got.lateStart, late.Start) {
				t.Fatalf("%s: entry starts\n  early %v\n  late  %v\nfull pair\n  early %v\n  late  %v",
					what, got.earlyStart, got.lateStart, early.Start, late.Start)
			}
			n++
		}
	}
	return n
}

// runOverrideDifferential drives the exhaustive window derivation through
// a synthesis, as synthesizeMono does, and before every decision holds all
// override entries to their cold full pairs. It stops once a commitment
// strands the rest (repair locks the schedule, and no window is derived
// after that) and returns the number of entries compared.
func runOverrideDifferential(t *testing.T, label string, g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config) int {
	t.Helper()
	cfg.windows = windowsExhaustive
	st, err := newState(g, lib, cons, cfg)
	if err != nil {
		return 0
	}
	if err := st.refineInitialModules(); err != nil {
		return 0
	}
	compared, oracle := 0, sched.NewArena(g)
	for range g.N() {
		compared += requireEntriesMatchFullRuns(t, label, st, oracle)
		dec, ok := st.bestDecision()
		if !ok {
			break
		}
		st.commit(dec)
		probe, err := st.currentPASAP()
		if err != nil {
			break
		}
		st.noteProbe(dec, probe)
	}
	return compared
}

// TestOverrideReplayMatchesFullRuns is the per-run differential of the
// replayed override runs (sched.Reference): at every decision of a
// synthesis, each override entry — window and both start arrays — must
// equal the cold full pair. It covers every paper benchmark under Table 1
// and the 3-level DVS library at T = cp+{0,3,8} and caps {0.6, 0.8, 0} ×
// the ASAP peak (the classic benchmark catalogue; the uncapped points
// forced onto the exhaustive derivation), and the 300 random instances of
// TestColdWindowsRandomDifferential.
func TestOverrideReplayMatchesFullRuns(t *testing.T) {
	compared := 0
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
					label := fmt.Sprintf("%s lib%d T=%d P<=%g", name, li, cons.Deadline, cons.PowerMax)
					compared += runOverrideDifferential(t, label, g, lib, cons, Config{})
				}
			}
		}
	}
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := coldDiffInstance(seed, int(seed), int(seed/40), math.Sqrt(rng.Float64()), math.Sqrt(rng.Float64()))
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		compared += runOverrideDifferential(t, fmt.Sprintf("seed %d", seed), inst.Graph, inst.Library, cons, Config{})
	}
	t.Logf("%d override entries compared", compared)
	if compared < 10000 {
		t.Fatalf("only %d override entries compared", compared)
	}
}
