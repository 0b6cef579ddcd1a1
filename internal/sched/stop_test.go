package sched

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// checkStoppedRuns holds bounded pasap runs to the full run under the same
// options: for bounds around and below the full run's length, a bounded
// run must fail exactly when the full run fails or its length exceeds the
// bound — with ErrStopped when the full run succeeds — and give the full
// run's starts otherwise. It checks plain runs and, against a reference
// pair of c, the replayed override runs of every free node, and returns
// how many bounded runs it compared.
func checkStoppedRuns(t *testing.T, c replayCase) int {
	t.Helper()
	g, opts := c.g, c.opts
	bind := UniformFastest(c.lib)
	opts.Arena = NewArena(g)
	runs := 0
	check := func(label string, o Options) {
		full, ferr := PASAP(g, bind, o)
		l := 0
		if ferr == nil {
			l = full.Length()
		}
		got := make([]int, g.N())
		for _, bound := range []int{1, l / 2, l - 1, l, l + 1, l + 7} {
			if bound <= 0 {
				continue
			}
			o.Stop = bound
			err := PASAPStarts(g, bind, o, got)
			o.Stop = 0
			runs++
			what := fmt.Sprintf("%s, bound %d, full length %d", label, bound, l)
			switch {
			case ferr != nil:
				if err == nil {
					t.Fatalf("%s: the bounded run succeeds, the full run fails: %v", what, ferr)
				}
			case l > bound:
				if !errors.Is(err, ErrStopped) {
					t.Fatalf("%s: the bounded run returns %v, want ErrStopped", what, err)
				}
			case err != nil:
				t.Fatalf("%s: the bounded run fails (%v), the full run fits", what, err)
			case !slices.Equal(got, full.Start):
				t.Fatalf("%s: bounded starts %v, full run %v", what, got, full.Start)
			}
		}
	}
	check("plain run", opts)
	early, eerr := PASAP(g, bind, opts)
	late, lerr := PALAP(g, bind, c.deadline, opts)
	if eerr != nil || lerr != nil {
		return runs
	}
	starts := make([]Window, g.N())
	for i := range starts {
		starts[i] = Window{Early: early.Start[i], Late: late.Start[i]}
	}
	var ref Reference
	if err := ref.Reset(g, bind, opts, starts); err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes() {
		if opts.FixedStarts[n.ID] >= 0 {
			continue
		}
		for _, mi := range c.lib.Candidates(n.Op) {
			m := c.lib.Module(mi)
			o := opts
			o.Delays, o.Powers = slices.Clone(opts.Delays), slices.Clone(opts.Powers)
			o.Delays[n.ID], o.Powers[n.ID] = m.Delay, m.Power
			o.Ref, o.RefNode = &ref, n.ID
			check(fmt.Sprintf("override %s -> %s", n.Name, m.Name), o)
		}
	}
	return runs
}

// TestStoppedRunMatchesFullRun is the contract of Options.Stop on random
// graphs under both selection policies, with and without a cap, fixed
// nodes, an ambient base profile, releases and dues, for plain and
// replayed runs.
func TestStoppedRunMatchesFullRun(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	runs := 0
	for seed := 0; seed < seeds; seed++ {
		for _, sel := range []Selection{CriticalFirst, SmallestID} {
			u := uint8(seed)
			if c, ok := newReplayCase(int64(seed), u*7, u*37, u, u/3, seed%3 == 0, sel); ok {
				runs += checkStoppedRuns(t, c)
			}
		}
	}
	t.Logf("%d bounded runs compared", runs)
	if runs < 5000 {
		t.Fatalf("only %d bounded runs compared", runs)
	}
}

// FuzzStoppedRun explores the parameters of TestStoppedRunMatchesFullRun.
func FuzzStoppedRun(f *testing.F) {
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
			checkStoppedRuns(t, c)
		}
	})
}
