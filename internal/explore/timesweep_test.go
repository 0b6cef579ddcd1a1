package explore

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/library"
)

func TestTimeSweepHal(t *testing.T) {
	c, err := TimeSweep(bench.HAL(), library.Table1(), 0, TimeSweepConfig{
		TMin: 6, TMax: 20, Step: 1, SinglePass: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Benchmark != "hal" || len(c.Points) != 15 {
		t.Fatalf("curve: %s, %d points", c.Benchmark, len(c.Points))
	}
	// Deadlines below the critical path (8 with parallel mults) are
	// infeasible; generous deadlines are feasible.
	minT, ok := c.MinFeasibleDeadline()
	if !ok {
		t.Fatal("no feasible deadline")
	}
	if minT < 8 || minT > 10 {
		t.Fatalf("min feasible T = %d, expected near the critical path 8", minT)
	}
	// Subsumption: area non-increasing in T.
	prev := -1.0
	for _, p := range c.Points {
		if !p.Feasible {
			continue
		}
		if prev > 0 && p.Area > prev+1e-9 {
			t.Fatalf("area rose from %.1f to %.1f at T=%d", prev, p.Area, p.Deadline)
		}
		prev = p.Area
	}
	// Looser deadlines must enable cheaper (serial-multiplier) designs.
	first := c.Points[len(c.Points)-1]
	knee, _ := firstFeasible(c)
	if first.Area >= knee.Area {
		t.Fatalf("area at T=20 (%.1f) should be below area at T=%d (%.1f)", first.Area, knee.Deadline, knee.Area)
	}
}

func firstFeasible(c TimeCurve) (TimePoint, bool) {
	for _, p := range c.Points {
		if p.Feasible {
			return p, true
		}
	}
	return TimePoint{}, false
}

func TestTimeSweepWithPowerCap(t *testing.T) {
	c, err := TimeSweep(bench.HAL(), library.Table1(), 8, TimeSweepConfig{
		TMin: 8, TMax: 24, Step: 2, SinglePass: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	minT, ok := c.MinFeasibleDeadline()
	if !ok {
		t.Fatal("no feasible deadline under P<=8")
	}
	// Under a tight power cap the minimum feasible deadline moves out
	// past the unconstrained critical path.
	if minT <= 10 {
		t.Fatalf("min feasible T under P<=8 is %d; expected the power cap to stretch it beyond 10", minT)
	}
	for _, p := range c.Points {
		if p.Feasible && p.Peak > 8+1e-9 {
			t.Fatalf("point at T=%d violates the power cap: peak %.2f", p.Deadline, p.Peak)
		}
	}
}

func TestTimeSweepBadGrid(t *testing.T) {
	for _, cfg := range []TimeSweepConfig{
		{TMin: 5, TMax: 10, Step: 0},
		{TMin: 10, TMax: 5, Step: 1},
		{TMin: 0, TMax: 10, Step: 1},
	} {
		if _, err := TimeSweep(bench.HAL(), library.Table1(), 0, cfg); !errors.Is(err, ErrBadGrid) {
			t.Errorf("cfg %+v accepted", cfg)
		}
	}
}

// TestTimeSweepGridNoOverflow: the deadline grid must neither wrap into
// negative deadlines under a huge step nor loop forever when it ends near
// math.MaxInt.
func TestTimeSweepGridNoOverflow(t *testing.T) {
	for _, c := range []struct {
		min, max, step int
		want           []int
	}{
		{1, 10, 3, []int{1, 4, 7, 10}},
		{5, 5, 1, []int{5}},
		{1, 10, math.MaxInt, []int{1}},
		{math.MaxInt - 5, math.MaxInt, 2, []int{math.MaxInt - 5, math.MaxInt - 3, math.MaxInt - 1}},
		{math.MaxInt, math.MaxInt, 1, []int{math.MaxInt}},
	} {
		if got := deadlineGrid(c.min, c.max, c.step); !slices.Equal(got, c.want) {
			t.Errorf("deadlineGrid(%d, %d, %d) = %v, want %v", c.min, c.max, c.step, got, c.want)
		}
	}

	c, err := TimeSweep(bench.HAL(), library.Table1(), 0, TimeSweepConfig{TMin: 1, TMax: 10, Step: math.MaxInt, SinglePass: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 1 || c.Points[0].Deadline != 1 {
		t.Errorf("huge step: points %+v, want the single deadline 1", c.Points)
	}

	// A grid ending at math.MaxInt must be built and returned; the
	// cancelled context keeps the (enormous) deadlines from being run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = TimeSweepContext(ctx, bench.HAL(), library.Table1(), 0, TimeSweepConfig{TMin: math.MaxInt - 5, TMax: math.MaxInt, Step: 2, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("grid ending at MaxInt: err = %v, want context.Canceled", err)
	}
}

func TestTimeCurveCSVAndLabel(t *testing.T) {
	c, err := TimeSweep(bench.HAL(), library.Table1(), 20, TimeSweepConfig{
		TMin: 10, TMax: 14, Step: 2, SinglePass: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	csv := c.CSV()
	if !strings.HasPrefix(csv, "benchmark,powermax,deadline") {
		t.Fatalf("csv header wrong: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if c.Label() != "hal (P<=20)" {
		t.Fatalf("label = %q", c.Label())
	}
	unc := TimeCurve{Benchmark: "hal"}
	if !strings.Contains(unc.Label(), "unconstrained") {
		t.Fatalf("label = %q", unc.Label())
	}
}
