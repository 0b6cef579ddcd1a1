package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// pruneCounts tallies the iterations checkPrunedDecisions compared: all
// of them, those of a locked (repaired) state and those with no decision
// (the ones that trigger repair); and what the cost bound of the pruned
// scans skipped: override window derivations and new-instance probes.
type pruneCounts struct {
	compared, locked, empty int
	windows, probes         int
}

// checkPrunedDecisions installs the decided hook until the test ends:
// every bestDecision of every synthesis that follows must return exactly
// what a full scan of the same iteration returns (scanDecisions(false)),
// whether it found a decision or not. label names the synthesis in
// failures; it must be set before each synthesis starts.
func checkPrunedDecisions(t *testing.T, label *string) *pruneCounts {
	var mu sync.Mutex
	counts := &pruneCounts{}
	decided = func(st *state, d Decision, ok bool) {
		full, fullOK := st.scanDecisions(false)
		mu.Lock()
		defer mu.Unlock()
		counts.compared++
		counts.windows += st.skips.windows
		counts.probes += st.skips.probes
		st.skips.windows, st.skips.probes = 0, 0
		if st.locked {
			counts.locked++
		}
		if !ok {
			counts.empty++
		}
		if ok != fullOK || d != full {
			t.Errorf("%s: after %d decisions the pruned scan returns %+v (ok=%v), the full scan %+v (ok=%v)",
				*label, len(st.decisions), d, ok, full, fullOK)
		}
	}
	t.Cleanup(func() { decided = nil })
	return counts
}

// TestPrunedDecisionMatchesFullScan is the step-by-step differential of
// the weight-class pruning of bestDecision: at every iteration of the
// synthesis loop, repair included, the pruned scan must return the
// decision a scan of every uncommitted node returns. It covers the
// classic catalogue (every paper benchmark under Table 1 and the 3-level
// DVS library at T = cp+{0,3,8} and caps {0.6, 0.8, 0} × the ASAP peak, on
// the exhaustive derivation), the 300 random instances of
// TestColdWindowsRandomDifferential under every search variant, and the
// scaling tiers (the SDC derivation, decomposed where the tier is
// large). The golden and cold-window suites cannot see the pruning: their
// coldWindows reference runs through the same pruned scan. The cost bound
// must skip at least a floor of override derivations and of new-instance
// probes, so a bound that stops firing fails here too.
func TestPrunedDecisionMatchesFullScan(t *testing.T) {
	label := ""
	counts := checkPrunedDecisions(t, &label)
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
					Synthesize(g, lib, cons, Config{windows: windowsExhaustive})
				}
			}
		}
	}
	classic := *counts
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
	random := *counts
	for _, tier := range scalingTiers {
		// scalingInstance synthesizes the tier's point to verify it.
		label = tier.name
		scalingInstance(t, tier)
	}
	t.Logf("iterations compared: %d classic, %d random, %d scaling; %d locked, %d without a decision; "+
		"the cost bound skipped %d override derivations and %d new-instance probes",
		classic.compared, random.compared-classic.compared, counts.compared-random.compared, counts.locked, counts.empty,
		counts.windows, counts.probes)
	if min := 10000; counts.compared < min {
		t.Fatalf("only %d iterations compared, want at least %d", counts.compared, min)
	}
	if counts.locked == 0 || counts.empty == 0 {
		t.Fatal("no iteration reached repair; the differential never checks the repaired loop")
	}
	if counts.windows < pruneSkipFloor.windows || counts.probes < pruneSkipFloor.probes {
		t.Fatalf("the cost bound skipped %d override derivations and %d new-instance probes, want at least %d and %d",
			counts.windows, counts.probes, pruneSkipFloor.windows, pruneSkipFloor.probes)
	}
}

// pruneSkipFloor is the least TestPrunedDecisionMatchesFullScan's cost
// bound must skip over the whole run, about half of what it skipped when
// the bound was introduced.
var pruneSkipFloor = struct{ windows, probes int }{10000, 200000}

// FuzzPrunedDecision explores the parameters of
// TestPrunedDecisionMatchesFullScan's random instances: under any search
// variant, every pruned decision must equal the full scan's.
func FuzzPrunedDecision(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), uint8(200), uint8(200), uint8(0))
	f.Add(int64(2), uint8(39), uint8(2), uint8(40), uint8(60), uint8(1))
	f.Add(int64(3), uint8(25), uint8(1), uint8(255), uint8(0), uint8(2))
	f.Add(int64(4), uint8(0), uint8(1), uint8(0), uint8(255), uint8(3))
	f.Add(int64(5), uint8(33), uint8(2), uint8(128), uint8(128), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nodes, blocks, slack, factor, variant uint8) {
		label := fmt.Sprintf("variant %d", variant)
		checkPrunedDecisions(t, &label)
		inst := coldDiffInstance(seed, int(nodes), int(blocks), float64(slack)/256, float64(factor)/256)
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		cfgs := coldDiffConfigs(seed)
		Synthesize(inst.Graph, inst.Library, cons, cfgs[int(variant)%len(cfgs)])
	})
}
