package core

import (
	"bytes"
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

// refuteCounts tallies the pairs and probes checkRefuted ran in full, by
// kind.
type refuteCounts [3]int

// checkRefuted installs the refuted hook until the test ends: every
// override pair and descent or refine probe the precedence bound refutes
// in the syntheses that follow is run in full, and must fail, yield a
// window of width < 1 (a pair), or exceed the probe's length bound. label
// names the synthesis in failures; it must be set before each synthesis
// starts.
func checkRefuted(t *testing.T, label *string) *refuteCounts {
	var mu sync.Mutex
	counts := &refuteCounts{}
	refuted = func(st *state, kind refutation, v cdfg.NodeID, mi, bound int) {
		err := runRefuted(st, kind, v, mi, bound)
		mu.Lock()
		defer mu.Unlock()
		counts[kind]++
		if err != nil {
			t.Errorf("%s: %v", *label, err)
		}
	}
	t.Cleanup(func() { refuted = nil })
	return counts
}

// runRefuted runs one refuted pair or probe in full, on fresh scheduler
// scratch, and returns an error when it succeeds after all.
func runRefuted(st *state, kind refutation, v cdfg.NodeID, mi, bound int) error {
	name := st.g.Node(v).Name
	if kind != refutedPair {
		opts := st.schedOpts()
		opts.Arena = nil
		s, err := sched.PASAP(st.g, st.baseBind, opts)
		if err == nil && s.Length() <= bound {
			return fmt.Errorf("a refuted probe of node %q under %s meets its bound %d: length %d",
				name, st.lib.Module(mi).Name, bound, s.Length())
		}
		return nil
	}
	m := st.lib.Module(mi)
	opts := st.opts
	opts.Arena = nil
	opts.Delays, opts.Powers = slices.Clone(st.delays), slices.Clone(st.powers)
	opts.Delays[v], opts.Powers[v] = m.Delay, m.Power
	early, err := sched.PASAP(st.g, st.baseBind, opts)
	if err != nil || early.Length() > bound {
		return nil
	}
	late, err := sched.PALAP(st.g, st.baseBind, bound, opts)
	if err != nil {
		return nil
	}
	if w := (sched.Window{Early: early.Start[v], Late: late.Start[v]}); w.Width() >= 1 {
		return fmt.Errorf("the refuted override pair of node %q under %s yields the window %+v", name, m.Name, w)
	}
	return nil
}

// refuteFloor is the least TestRefutedPairsFailInFull's bound must refute
// over the whole run, by kind: about half of what it refuted when it was
// introduced.
var refuteFloor = refuteCounts{refutedPair: 60000, refutedDescent: 4000, refutedRefine: 4000}

// TestRefutedPairsFailInFull is the differential of the precedence bound
// that refutes override pairs and module-descent probes before they run:
// every refuted pair, run in full, must fail or yield a window of width
// < 1, and every refuted descent or refine probe must fail or exceed its
// length bound. It covers the SynthesizeBest ladders of the classic
// catalogue (every paper benchmark under Table 1 and the 3-level DVS
// library at T = cp+{0,3,8} and caps {0.6, 0.8, 0} × the ASAP peak) and
// the 300 random instances of TestColdWindowsRandomDifferential under
// every search variant. The golden and cold-window suites compare whole
// designs against the coldWindows oracle, which refutes nothing; this
// test checks each refutation where it happens, and its floor fails a
// bound that stops firing.
func TestRefutedPairsFailInFull(t *testing.T) {
	label := ""
	counts := checkRefuted(t, &label)
	for bi, name := range goldenBenchmarks {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dvs := gen.Library(int64(1000+bi), gen.LibraryConfig{Levels: 3})
		for li, lib := range []*library.Library{library.Table1(), dvs} {
			elib, err := lib.Expand()
			if err != nil {
				t.Fatal(err)
			}
			asap, err := sched.ASAP(g, sched.UniformFastest(elib))
			if err != nil {
				t.Fatal(err)
			}
			for _, off := range []int{0, 3, 8} {
				for _, f := range []float64{0.6, 0.8, 0} {
					cons := Constraints{Deadline: asap.Length() + off, PowerMax: f * asap.PeakPower()}
					label = fmt.Sprintf("%s lib%d T=%d P<=%g best", name, li, cons.Deadline, cons.PowerMax)
					SynthesizeBest(g, lib, cons, Config{Workers: 1})
				}
			}
		}
	}
	classic := *counts
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := coldDiffInstance(seed, int(seed), int(seed/40), math.Sqrt(rng.Float64()), math.Sqrt(rng.Float64()))
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		for ci, cfg := range coldDiffConfigs(seed) {
			label = fmt.Sprintf("seed %d config %d", seed, ci)
			Synthesize(inst.Graph, inst.Library, cons, cfg)
		}
	}
	t.Logf("refuted and run in full: %d/%d/%d pairs/descent/refine probes on the classic ladders, %d/%d/%d on the random instances",
		classic[refutedPair], classic[refutedDescent], classic[refutedRefine],
		counts[refutedPair]-classic[refutedPair], counts[refutedDescent]-classic[refutedDescent],
		counts[refutedRefine]-classic[refutedRefine])
	for kind, floor := range refuteFloor {
		if counts[kind] < floor {
			t.Errorf("the bound refuted %d of kind %d, want at least %d", counts[kind], kind, floor)
		}
	}
}

// FuzzRefutedPairs explores the parameters of TestRefutedPairsFailInFull's
// random instances: under any search variant, every refuted pair or probe
// must fail in full.
func FuzzRefutedPairs(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), uint8(200), uint8(200), uint8(0))
	f.Add(int64(2), uint8(39), uint8(2), uint8(40), uint8(60), uint8(1))
	f.Add(int64(3), uint8(25), uint8(1), uint8(255), uint8(0), uint8(2))
	f.Add(int64(4), uint8(0), uint8(1), uint8(0), uint8(255), uint8(3))
	f.Add(int64(5), uint8(33), uint8(2), uint8(128), uint8(128), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nodes, blocks, slack, factor, variant uint8) {
		label := fmt.Sprintf("variant %d", variant)
		checkRefuted(t, &label)
		inst := coldDiffInstance(seed, int(nodes), int(blocks), float64(slack)/256, float64(factor)/256)
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		cfgs := coldDiffConfigs(seed)
		Synthesize(inst.Graph, inst.Library, cons, cfgs[int(variant)%len(cfgs)])
	})
}

// kitPoint is one SynthesizeBest input of the kit tests.
type kitPoint struct {
	name string
	g    *cdfg.Graph
	lib  *library.Library
	cons Constraints
}

// kitPoints are classic points whose SynthesizeBest ladders run many
// states on the exhaustive derivation, at cp+3 and 0.8 × the ASAP peak:
// hal under Table 1, elliptic and fft8 under their 3-level DVS libraries.
func kitPoints(t *testing.T) []kitPoint {
	var ps []kitPoint
	for _, p := range []struct {
		name string
		seed int64
	}{{"hal", 0}, {"elliptic", 1002}, {"fft8", 1006}} {
		g, err := bench.ByName(p.name)
		if err != nil {
			t.Fatal(err)
		}
		lib := library.Table1()
		if p.seed != 0 {
			if lib, err = gen.Library(p.seed, gen.LibraryConfig{Levels: 3}).Expand(); err != nil {
				t.Fatal(err)
			}
		}
		asap, err := sched.ASAP(g, sched.UniformFastest(lib))
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, kitPoint{p.name, g, lib, Constraints{Deadline: asap.Length() + 3, PowerMax: 0.8 * asap.PeakPower()}})
	}
	return ps
}

// TestSynthesizeBestKitsAcrossWorkers: the states of a SynthesizeBest
// ladder share scheduler scratch (kit), and concurrent states must never
// share one. One worker and four give byte-identical designs; under -race
// this is the aliasing gate of the kit pool.
func TestSynthesizeBestKitsAcrossWorkers(t *testing.T) {
	for _, p := range kitPoints(t) {
		var want []byte
		for _, workers := range []int{1, 4} {
			d, err := SynthesizeBest(p.g, p.lib, p.cons, Config{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.name, workers, err)
			}
			got, err := d.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s: workers=%d gives\n%s\nworkers=1 gives\n%s", p.name, workers, got, want)
			}
		}
	}
}

// TestSynthesizeBestDesignOutlivesKits: nothing a returned design keeps
// points into the scratch its ladder's states shared, so a later call on
// the same graph leaves it unchanged.
func TestSynthesizeBestDesignOutlivesKits(t *testing.T) {
	for _, p := range kitPoints(t) {
		d, err := SynthesizeBest(p.g, p.lib, p.cons, Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		before, err := d.JSON()
		if err != nil {
			t.Fatal(err)
		}
		report, decisions := d.Report(), slices.Clone(d.Decisions)
		later := p.cons
		later.Deadline++
		if _, err := SynthesizeBest(p.g, p.lib, later, Config{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		after, err := d.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) || d.Report() != report || !slices.Equal(d.Decisions, decisions) {
			t.Fatalf("%s: the design changed after a later call:\nbefore\n%s\nafter\n%s", p.name, before, after)
		}
	}
}
