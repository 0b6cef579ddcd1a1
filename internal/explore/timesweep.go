package explore

import (
	"context"
	"fmt"
	"strings"

	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
	"pchls/internal/runner"
)

// TimePoint is one sample of an area-versus-latency sweep.
type TimePoint struct {
	// Deadline is the time constraint T of this sample.
	Deadline int
	// Feasible reports whether a design was found.
	Feasible bool
	// Area is the datapath area of the best design (valid when Feasible).
	Area float64
	// Peak is the achieved per-cycle power peak.
	Peak float64
	// FUs and Registers are allocation counts.
	FUs, Registers int
}

// TimeCurve is an area-versus-latency series at a fixed power constraint.
type TimeCurve struct {
	// Benchmark is the CDFG name.
	Benchmark string
	// PowerMax is the fixed power constraint (<= 0 unconstrained).
	PowerMax float64
	// Points are the samples in increasing deadline order.
	Points []TimePoint
}

// Label renders the legend label, e.g. "hal (P<=20)".
func (c TimeCurve) Label() string {
	if c.PowerMax <= 0 {
		return fmt.Sprintf("%s (P< unconstrained)", c.Benchmark)
	}
	return fmt.Sprintf("%s (P<=%g)", c.Benchmark, c.PowerMax)
}

// TimeSweepConfig parameterizes a latency sweep.
type TimeSweepConfig struct {
	// TMin, TMax and Step define the deadline grid (inclusive).
	TMin, TMax, Step int
	// SinglePass uses the one-shot Synthesize instead of SynthesizeBest.
	SinglePass bool
	// Workers bounds the number of grid points synthesized concurrently:
	// 0 uses GOMAXPROCS, 1 keeps the legacy serial path. The curve is
	// byte-identical for every setting.
	Workers int
	// InFlight, when non-nil, tracks the worker pool's instantaneous
	// occupancy (see runner.Config.InFlight).
	InFlight runner.Gauge
	// Config is passed through to the synthesizer.
	Config core.Config
}

// TimeSweep synthesizes g at a fixed power constraint for every deadline
// on the grid — the orthogonal cut through the time-power-constraint space
// the paper's evaluation explores.
func TimeSweep(g *cdfg.Graph, lib *library.Library, powerMax float64, cfg TimeSweepConfig) (TimeCurve, error) {
	return TimeSweepContext(context.Background(), g, lib, powerMax, cfg)
}

// TimeSweepContext is TimeSweep with cancellation: grid points are
// synthesized by a bounded worker pool (cfg.Workers) and ctx cancellation
// aborts the sweep between synthesis runs. Results are identical to the
// serial sweep for every worker count; the deadline-subsumption pass runs
// serially over the collected results.
func TimeSweepContext(ctx context.Context, g *cdfg.Graph, lib *library.Library, powerMax float64, cfg TimeSweepConfig) (TimeCurve, error) {
	if cfg.Step <= 0 || cfg.TMax < cfg.TMin || cfg.TMin <= 0 {
		return TimeCurve{}, fmt.Errorf("%w: tmin %d tmax %d step %d", ErrBadGrid, cfg.TMin, cfg.TMax, cfg.Step)
	}
	cells, err := grid{
		deadlines:  deadlineGrid(cfg.TMin, cfg.TMax, cfg.Step),
		powers:     []float64{powerMax},
		singlePass: cfg.SinglePass,
		workers:    cfg.Workers,
		inFlight:   cfg.InFlight,
		config:     cfg.Config,
	}.evaluate(ctx, g, lib)
	if err != nil {
		return TimeCurve{}, err
	}
	// A design meeting a tighter deadline also meets a looser one.
	subsumeLine(cells)
	curve := TimeCurve{Benchmark: g.Name, PowerMax: powerMax, Points: make([]TimePoint, len(cells))}
	for i, c := range cells {
		curve.Points[i] = TimePoint{
			Deadline: c.Deadline, Feasible: c.Feasible, Area: c.Area, Peak: c.Peak,
			FUs: c.FUs, Registers: c.Registers,
		}
	}
	return curve, nil
}

// deadlineGrid returns the inclusive deadline grid [min, max] at step > 0.
// It stops before a step would pass max, comparing the remaining room
// rather than the next value, so a grid ending near math.MaxInt or a huge
// step cannot overflow into negative or endless deadlines.
func deadlineGrid(min, max, step int) []int {
	deadlines := []int{min}
	for T := min; max-T >= step; {
		T += step
		deadlines = append(deadlines, T)
	}
	return deadlines
}

// CSV renders the time curve with a header.
func (c TimeCurve) CSV() string {
	var sb strings.Builder
	sb.WriteString("benchmark,powermax,deadline,feasible,area,peak,fus,registers\n")
	for _, p := range c.Points {
		fmt.Fprintf(&sb, "%s,%g,%d,%t,%.1f,%.2f,%d,%d\n",
			c.Benchmark, c.PowerMax, p.Deadline, p.Feasible, p.Area, p.Peak, p.FUs, p.Registers)
	}
	return sb.String()
}

// MinFeasibleDeadline returns the tightest feasible T on the grid.
func (c TimeCurve) MinFeasibleDeadline() (int, bool) {
	for _, p := range c.Points {
		if p.Feasible {
			return p.Deadline, true
		}
	}
	return 0, false
}
