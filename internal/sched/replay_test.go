package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
)

// replayCase is one reference pair: a graph, a library whose modules give
// the overrides, and the options and deadline both runs share.
type replayCase struct {
	g        *cdfg.Graph
	lib      *library.Library
	opts     Options
	deadline int
}

// newReplayCase draws a reference pair the way FuzzWindows draws its
// windows: a random graph and library, a cap capPct percent of the way
// from the largest single draw to the ASAP peak (0: uncapped), a deadline
// slack past the pasap length, and a random subset of nodes fixed at their
// pasap starts. extras adds an ambient base profile, releases and dues,
// and sel picks the selection policy.
func newReplayCase(seed int64, nodes, capPct, slack, fixEvery uint8, extras bool, sel Selection) (replayCase, bool) {
	g := gen.Graph(seed, gen.GraphConfig{Nodes: 1 + int(nodes)%40})
	lib := gen.Library(seed, gen.LibraryConfig{ModulesPerOp: 3, DelayMax: 4})
	bind := UniformFastest(lib)
	asap, err := ASAP(g, bind)
	if err != nil {
		return replayCase{}, false
	}
	opts := Options{Select: sel}
	if capPct > 0 {
		lo := 0.0
		for _, mi := range allModules(lib) {
			lo = max(lo, lib.Module(mi).Power)
		}
		opts.PowerMax = lo + max(asap.PeakPower()-lo, 0)*float64(capPct)/255
	}
	rng := rand.New(rand.NewSource(seed))
	if extras {
		opts.Base = make([]float64, asap.Length())
		for c := range opts.Base {
			opts.Base[c] = rng.Float64() * opts.PowerMax / 3
		}
	}
	early, err := PASAP(g, bind, opts)
	if err != nil {
		return replayCase{}, false
	}
	deadline := early.Length() + int(slack)%8
	opts.FixedStarts = make([]int, g.N())
	for i := range opts.FixedStarts {
		opts.FixedStarts[i] = -1
		if fixEvery > 0 && rng.Intn(int(fixEvery)%8+1) == 0 {
			opts.FixedStarts[i] = early.Start[i]
		}
	}
	if extras {
		opts.Release = make([]int, g.N())
		opts.Due = make([]int, g.N())
		for i := range opts.Release {
			if opts.FixedStarts[i] >= 0 {
				continue
			}
			switch rng.Intn(5) {
			case 0:
				opts.Release[i] = early.Start[i]
			case 1:
				opts.Due[i] = early.End(cdfg.NodeID(i)) + rng.Intn(3)
			}
		}
	}
	opts.Delays = make([]int, g.N())
	opts.Powers = make([]float64, g.N())
	for _, n := range g.Nodes() {
		m := bind(n)
		opts.Delays[n.ID], opts.Powers[n.ID] = m.Delay, m.Power
	}
	return replayCase{g: g, lib: lib, opts: opts, deadline: deadline}, true
}

// allModules lists every module index of lib.
func allModules(lib *library.Library) []int {
	ms := make([]int, lib.Len())
	for i := range ms {
		ms[i] = i
	}
	return ms
}

// errText renders an error for comparison ("" for nil).
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkReplay derives the reference pair of c, then overrides every free
// node with every module of its operation and requires each replayed
// pasap and palap run to give the start array, or the error text, of the
// same run in full. It reports how many override runs it compared.
func checkReplay(t *testing.T, c replayCase) int {
	t.Helper()
	g, opts := c.g, c.opts
	bind := UniformFastest(c.lib)
	opts.Arena = NewArena(g)
	early, eerr := PASAP(g, bind, opts)
	late, lerr := PALAP(g, bind, c.deadline, opts)
	if eerr != nil || lerr != nil {
		return 0 // no reference pair to replay
	}
	starts := make([]Window, g.N())
	for i := range starts {
		starts[i] = Window{Early: early.Start[i], Late: late.Start[i]}
	}
	var ref Reference
	if err := ref.Reset(g, bind, opts, starts); err != nil {
		t.Fatal(err)
	}
	baseDelays, basePowers := opts.Delays, opts.Powers
	got := make([]int, g.N())
	runs := 0
	for _, n := range g.Nodes() {
		v := n.ID
		if opts.FixedStarts[v] >= 0 {
			continue
		}
		for _, mi := range c.lib.Candidates(n.Op) {
			m := c.lib.Module(mi)
			o := opts
			o.Delays, o.Powers = slices.Clone(baseDelays), slices.Clone(basePowers)
			o.Delays[v], o.Powers[v] = m.Delay, m.Power
			fullEarly, ferr := PASAP(g, bind, o)
			fullLate, flerr := PALAP(g, bind, c.deadline, o)
			o.Ref, o.RefNode = &ref, v
			label := fmt.Sprintf("override %s -> %s", n.Name, m.Name)
			rerr := PASAPStarts(g, bind, o, got)
			if errText(rerr) != errText(ferr) {
				t.Fatalf("%s: pasap replay error %q, full run %q", label, errText(rerr), errText(ferr))
			}
			if ferr == nil && !slices.Equal(got, fullEarly.Start) {
				t.Fatalf("%s: pasap replay starts %v, full run %v", label, got, fullEarly.Start)
			}
			rerr = PALAPStarts(g, bind, c.deadline, o, got)
			if errText(rerr) != errText(flerr) {
				t.Fatalf("%s: palap replay error %q, full run %q", label, errText(rerr), errText(flerr))
			}
			if flerr == nil && !slices.Equal(got, fullLate.Start) {
				t.Fatalf("%s: palap replay starts %v, full run %v", label, got, fullLate.Start)
			}
			runs += 2
		}
	}
	return runs
}

// TestReplayMatchesFullRuns holds replayed override runs to the runs they
// stand for, on random graphs under both selection policies, with and
// without a cap, fixed nodes, an ambient base profile, releases and dues.
func TestReplayMatchesFullRuns(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	runs := 0
	for seed := 0; seed < seeds; seed++ {
		for _, sel := range []Selection{CriticalFirst, SmallestID} {
			u := uint8(seed)
			c, ok := newReplayCase(int64(seed), u*7, u*37, u, u/3, seed%3 == 0, sel)
			if ok {
				runs += checkReplay(t, c)
			}
		}
	}
	t.Logf("%d override runs compared", runs)
	if runs < 1000 {
		t.Fatalf("only %d override runs compared", runs)
	}
}

// FuzzReplay explores the parameters of TestReplayMatchesFullRuns.
func FuzzReplay(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(128), uint8(2), uint8(3), false, false)
	f.Add(int64(42), uint8(20), uint8(0), uint8(0), uint8(1), true, false)
	f.Add(int64(7), uint8(30), uint8(255), uint8(5), uint8(2), false, true)
	f.Add(int64(2026), uint8(14), uint8(90), uint8(7), uint8(5), true, true)
	f.Fuzz(func(t *testing.T, seed int64, nodes, capPct, slack, fixEvery uint8, extras, smallestID bool) {
		sel := CriticalFirst
		if smallestID {
			sel = SmallestID
		}
		if c, ok := newReplayCase(seed, nodes, capPct, slack, fixEvery, extras, sel); ok {
			checkReplay(t, c)
		}
	})
}

// TestReplayStopsAtTheRunsHorizon covers the one way a shared node can
// land elsewhere than its reference start: a horizon that ends before the
// start does. The automatic pasap horizon leaves room for every placement,
// so the test passes an explicit one: on the chain i1 -> m1 -> a1 -> o1
// with a horizon of 2, m1's reference start 1 runs past it, and the
// replay must fail at m1 exactly as the full run does instead of copying
// m1 and failing later.
func TestReplayStopsAtTheRunsHorizon(t *testing.T) {
	g := chain(t)
	bind := fastest(t)
	base := Options{Arena: NewArena(g), Delays: []int{1, 2, 1, 1}, Powers: []float64{1, 1, 1, 1}}
	early, err := PASAP(g, bind, base)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]Window, g.N())
	for i := range starts {
		starts[i].Early = early.Start[i]
	}
	var ref Reference
	if err := ref.Reset(g, bind, base, starts); err != nil {
		t.Fatal(err)
	}
	o, _ := g.Lookup("o1")
	opts := base
	opts.Delays = []int{1, 2, 1, 3}
	full := pasapWithin(g, bind, &opts, 2, opts.Delays, opts.Powers, make([]int, g.N()), replay{})
	opts.Ref, opts.RefNode = &ref, o.ID
	rp := opts.replayOf(g, opts.Delays, false, 0)
	if rp.side == nil {
		t.Fatal("the override run does not replay the reference")
	}
	got := pasapWithin(g, bind, &opts, 2, opts.Delays, opts.Powers, make([]int, g.N()), rp)
	want := `sched: pasap: node "m1" cannot be placed in [1,0] under P< = 0: operation cannot be placed within horizon`
	if errText(full) != want || errText(got) != want {
		t.Fatalf("full run: %v\nreplay:   %v\nwant both: %s", full, got, want)
	}
}
