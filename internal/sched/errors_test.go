package sched

import (
	"errors"
	"fmt"
	"testing"

	"pchls/internal/cdfg"
)

// TestSchedulerErrorText pins the exact text of every scheduler failure a
// caller can provoke, and the sentinels errors.Is matches on it. Callers
// log and compare these strings (the CLI prints them, server bodies carry
// them), so a change in how failures are built must not change a byte.
func TestSchedulerErrorText(t *testing.T) {
	g := chain(t)
	bind := fastest(t)
	id := func(name string) cdfg.NodeID {
		n, _ := g.Lookup(name)
		return n.ID
	}
	release := make([]int, g.N())
	release[id("a1")] = 8
	sentinels := []error{ErrHorizon, ErrDeadline, ErrPowerInfeasible}
	for _, c := range []struct {
		name string
		run  func(a *Arena) error
		want string
		is   []error
	}{
		{
			name: "pasap placement",
			run: func(a *Arena) error {
				_, err := PASAP(g, bind, Options{FixedStarts: fixOne(g.N(), id("a1"), 2), Arena: a})
				return err
			},
			want: `sched: pasap: node "m1" cannot be placed in [1,0] under P< = 0: operation cannot be placed within horizon`,
			is:   []error{ErrHorizon},
		},
		{
			name: "pasap placement under a cap",
			run: func(a *Arena) error {
				_, err := PASAP(g, bind, Options{PowerMax: 10.123456, FixedStarts: fixOne(g.N(), id("a1"), 2), Arena: a})
				return err
			},
			want: `sched: pasap: node "m1" cannot be placed in [1,0] under P< = 10.1: operation cannot be placed within horizon`,
			is:   []error{ErrHorizon},
		},
		{
			name: "pasap single-op power",
			run: func(a *Arena) error {
				_, err := PASAP(g, bind, Options{PowerMax: 5, Arena: a})
				return err
			},
			want: `sched: pasap: node "m1" draws 8.1 per cycle, constraint 5: operation power exceeds power constraint`,
			is:   []error{ErrPowerInfeasible},
		},
		{
			name: "palap single-op power",
			run: func(a *Arena) error {
				_, err := PALAP(g, bind, 8, Options{PowerMax: 5, Arena: a})
				return err
			},
			want: `sched: palap: sched: pasap: node "m1" draws 8.1 per cycle, constraint 5: operation power exceeds power constraint`,
			is:   []error{ErrPowerInfeasible},
		},
		{
			name: "palap horizon overflow",
			run: func(a *Arena) error {
				_, err := PALAP(g, bind, 4, Options{Arena: a})
				return err
			},
			want: `sched: palap: latency constraint violated: sched: pasap: node "i1" cannot be placed in [4,3] under P< = 0: operation cannot be placed within horizon`,
			is:   []error{ErrDeadline, ErrHorizon},
		},
		{
			name: "palap horizon overflow under a cap",
			run: func(a *Arena) error {
				_, err := PALAP(g, bind, 4, Options{PowerMax: 9, Arena: a})
				return err
			},
			want: `sched: palap: latency constraint violated: sched: pasap: node "i1" cannot be placed in [4,3] under P< = 9: operation cannot be placed within horizon`,
			is:   []error{ErrDeadline, ErrHorizon},
		},
		{
			name: "palap release past the deadline",
			run: func(a *Arena) error {
				_, err := PALAP(g, bind, 8, Options{Release: release, Arena: a})
				return err
			},
			want: `sched: palap: node "a1" released at cycle 8 cannot finish by the deadline 8: latency constraint violated`,
			is:   []error{ErrDeadline},
		},
		{
			name: "palap fixed start past the deadline",
			run: func(a *Arena) error {
				_, err := PALAP(g, bind, 7, Options{FixedStarts: fixOne(g.N(), id("a1"), 7), Arena: a})
				return err
			},
			want: `sched: palap: node "a1" fixed at cycle 7 cannot finish by the deadline 7: latency constraint violated`,
			is:   []error{ErrDeadline},
		},
		{
			name: "windows pasap past the deadline",
			run: func(a *Arena) error {
				_, err := Windows(g, bind, 4, Options{Arena: a})
				return err
			},
			want: `sched: windows: pasap length 5 exceeds deadline 4: latency constraint violated`,
			is:   []error{ErrDeadline},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The arena must not change a failure either: run once without
			// and twice with one (cold, then warm).
			a := NewArena(g)
			for run, arena := range []*Arena{nil, a, a} {
				err := c.run(arena)
				if err == nil {
					t.Fatal("no error")
				}
				if got := err.Error(); got != c.want {
					t.Fatalf("run %d: error text\n  got  %s\n  want %s", run, got, c.want)
				}
				for _, s := range sentinels {
					want := false
					for _, w := range c.is {
						want = want || w == s
					}
					if errors.Is(err, s) != want {
						t.Fatalf("run %d: errors.Is(err, %v) = %v, want %v", run, s, !want, want)
					}
				}
			}
		})
	}
}

// TestSchedulerErrorValuesFormatLikeErrorf holds each typed scheduler
// failure to the fmt.Errorf it stands for, byte for byte and sentinel for
// sentinel — including the horizon overflow of a placement, which the
// automatic horizons leave no public path to.
func TestSchedulerErrorValuesFormatLikeErrorf(t *testing.T) {
	place := &placeError{node: "m1", t: 1, latest: 0, powerMax: 10.123456}
	for _, c := range []struct {
		got, want error
	}{
		{place, fmt.Errorf("sched: pasap: node %q cannot be placed in [%d,%d] under P< = %.3g: %w", "m1", 1, 0, 10.123456, ErrHorizon)},
		{&horizonError{node: "a\"b", start: 3, end: 9, horizon: 7},
			fmt.Errorf("sched: pasap: node %q placed at [%d,%d) outside horizon %d: %w", "a\"b", 3, 9, 7, ErrHorizon)},
		{&powerError{node: "m1", power: 8.1, powerMax: 5},
			fmt.Errorf("sched: pasap: node %q draws %.3g per cycle, constraint %.3g: %w", "m1", 8.1, 5.0, ErrPowerInfeasible)},
		{&palapError{err: place, deadline: true}, fmt.Errorf("sched: palap: %w: %w", ErrDeadline, place)},
		{&palapError{err: place}, fmt.Errorf("sched: palap: %w", place)},
	} {
		if c.got.Error() != c.want.Error() {
			t.Errorf("error text\n  got  %s\n  want %s", c.got, c.want)
		}
		for _, s := range []error{ErrHorizon, ErrDeadline, ErrPowerInfeasible} {
			if errors.Is(c.got, s) != errors.Is(c.want, s) {
				t.Errorf("%s: errors.Is(%v) = %v, fmt.Errorf's %v", c.got, s, errors.Is(c.got, s), errors.Is(c.want, s))
			}
		}
	}
}
