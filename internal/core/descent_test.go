package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// TestStoppedDescentProbesMatchFullRuns holds every probe of the initial
// module descent, which stops once a node ends past its bound, to a full
// pasap run under the same assumptions: the probe must succeed exactly
// when the full run does and fits the bound, with the full run's starts.
// It covers the classic catalogue (every paper benchmark under Table 1
// and the 3-level DVS library at T = cp+{0,3,8} and caps {0.6, 0.8, 0} ×
// the ASAP peak) and the 300 random instances of
// TestColdWindowsRandomDifferential under every search variant.
func TestStoppedDescentProbesMatchFullRuns(t *testing.T) {
	var mu sync.Mutex
	label := ""
	probes, stopped := 0, 0
	descentProbed = func(st *state, bound int, err error) {
		full, ferr := sched.PASAP(st.g, st.baseBind, st.schedOpts())
		want := ferr == nil && (bound <= 0 || full.Length() <= bound)
		mu.Lock()
		defer mu.Unlock()
		probes++
		if errors.Is(err, sched.ErrStopped) {
			stopped++
		}
		if (err == nil) != want {
			t.Errorf("%s: a descent probe bounded at %d returns %v; the full run returns %v", label, bound, err, ferr)
		} else if err == nil && !slices.Equal(st.descent, full.Start) {
			t.Errorf("%s: a descent probe bounded at %d places %v, the full run %v", label, bound, st.descent, full.Start)
		}
	}
	t.Cleanup(func() { descentProbed = nil })
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
					label = fmt.Sprintf("%s lib%d T=%d P<=%g", name, li, cons.Deadline, cons.PowerMax)
					Synthesize(g, lib, cons, Config{})
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
		for ci, cfg := range coldDiffConfigs(seed) {
			label = fmt.Sprintf("seed %d config %d", seed, ci)
			Synthesize(inst.Graph, inst.Library, cons, cfg)
		}
	}
	t.Logf("%d descent probes compared, %d of them stopped", probes, stopped)
	if probes < 10000 || stopped < 1000 {
		t.Fatalf("only %d descent probes compared (%d stopped)", probes, stopped)
	}
}

// TestRefineReportsSchedulerFailure: when no descent probe yields a
// schedule at all — on hal with every node due by cycle 1 none can — the
// error carries the scheduler's failure, not a placeholder length.
func TestRefineReportsSchedulerFailure(t *testing.T) {
	g := bench.HAL()
	due := make([]int, g.N())
	for i := range due {
		due[i] = 1
	}
	st, err := newState(g, library.Table1(), Constraints{Deadline: 17}, Config{due: due})
	if err != nil {
		t.Fatal(err)
	}
	err = st.refineInitialModules()
	if !errors.Is(err, ErrInfeasible) || !errors.Is(err, sched.ErrHorizon) {
		t.Fatalf("refineInitialModules = %v, want ErrInfeasible wrapping the scheduler's ErrHorizon", err)
	}
	if msg := err.Error(); strings.Contains(msg, "pasap length") || !strings.Contains(msg, "cannot be placed") {
		t.Fatalf("refineInitialModules = %q, want the scheduler's placement failure", msg)
	}
}
