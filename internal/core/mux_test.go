package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// scanMuxEstimate is muxEstimate as a scan of instance f's operations: an
// operand port of v adds an input when some operation of f has the port
// and some operation of f reads it from another producer than v does. It
// is the reference the producer summaries are held to.
func scanMuxEstimate(st *state, v cdfg.NodeID, f int) float64 {
	fu := st.fus[f]
	if len(fu.ops) == 0 {
		return 0
	}
	inputs := 0
	for port, p := range st.g.Preds(v) {
		seen, fresh := false, false
		for _, op := range fu.ops {
			if ep := st.g.Preds(op); port < len(ep) {
				seen = true
				if ep[port] != p {
					fresh = true
				}
			}
		}
		if seen && fresh {
			inputs++
		}
	}
	inputs++
	return float64(inputs) * st.cm.MuxInputArea
}

// muxCounts tallies what checkMuxEstimates compared: every estimate, those
// asked at merge trials and stitches, and the decisions made by a
// repaired (backtracked and locked) state.
type muxCounts struct {
	estimates, merging, repaired int
}

// checkMuxEstimates installs the mux hook until the test ends: every
// muxEstimate of every synthesis that follows must equal scanMuxEstimate.
// It also installs the decided, priced and stitched hooks, which ask the
// estimate of every node onto every instance at each decision, merge trial
// and stitch, so the summaries are held to the scan after every commit,
// backtrack, merge and unmerge, not only where the decision loop reads
// them. label names the synthesis in failures; it must be set before each
// synthesis starts.
func checkMuxEstimates(t *testing.T, label *string) *muxCounts {
	var mu sync.Mutex
	counts := &muxCounts{}
	merging := false
	mux = func(st *state, v cdfg.NodeID, f int, est float64) {
		want := scanMuxEstimate(st, v, f)
		mu.Lock()
		defer mu.Unlock()
		counts.estimates++
		if merging {
			counts.merging++
		}
		if math.Float64bits(est) != math.Float64bits(want) {
			t.Errorf("%s: after %d decisions muxEstimate(%s, instance %d) = %v, the scan gives %v",
				*label, len(st.decisions), st.g.Node(v).Name, f, est, want)
		}
	}
	all := func(st *state) {
		for v := range st.g.N() {
			for f := range st.fus {
				st.muxEstimate(cdfg.NodeID(v), f)
			}
		}
	}
	decided = func(st *state, _ Decision, _ bool) {
		if st.locked {
			mu.Lock()
			counts.repaired++
			mu.Unlock()
		}
		all(st)
	}
	merge := func(st *state) {
		mu.Lock()
		merging = true
		mu.Unlock()
		all(st)
		mu.Lock()
		merging = false
		mu.Unlock()
	}
	priced = func(st *state, _ float64) { merge(st) }
	stitched = merge
	t.Cleanup(func() { mux, decided, priced, stitched = nil, nil, nil, nil })
	return counts
}

// TestMuxSummaryMatchesScan is the differential of the per-instance
// producer summaries behind muxEstimate: through synthesis, backtracks,
// repair, both merge passes and the stitch, every estimate must equal a
// scan of the instance's operations. It covers the classic catalogue
// (every paper benchmark under Table 1 and the 3-level DVS library at
// T = cp+{0,3,8} and caps {0.6, 0.8, 0} × the ASAP peak, on the
// exhaustive derivation), 100 random instances under every search
// variant, and 30 random instances through the forced decomposition's
// stitch. The parts of a decomposition synthesize serially here, so the
// merge-phase tally is exact.
func TestMuxSummaryMatchesScan(t *testing.T) {
	label := ""
	counts := checkMuxEstimates(t, &label)
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
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := coldDiffInstance(seed, int(seed), int(seed/40), math.Sqrt(rng.Float64()), math.Sqrt(rng.Float64()))
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		for ci, cfg := range coldDiffConfigs(seed) {
			label = fmt.Sprintf("seed %d config %d", seed, ci)
			Synthesize(inst.Graph, inst.Library, cons, cfg)
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		inst, cons := stitchInstance(t, seed, uint8(seed), uint8(seed/7))
		label = fmt.Sprintf("stitch seed %d", seed)
		Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionForce, Workers: 1})
	}
	t.Logf("%d estimates compared, %d at merge trials and stitches; %d decisions of repaired states",
		counts.estimates, counts.merging, counts.repaired)
	if min := 1000000; counts.estimates < min {
		t.Fatalf("only %d estimates compared, want at least %d", counts.estimates, min)
	}
	if counts.merging == 0 || counts.repaired == 0 {
		t.Fatal("no estimate was compared at a merge trial, or none after a backtrack and repair")
	}
}
