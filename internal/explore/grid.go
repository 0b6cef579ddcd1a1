package explore

import (
	"context"
	"fmt"

	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
	"pchls/internal/runner"
)

// SynthesizeCell runs the synthesis of one grid cell: the paper's one-shot
// core.Synthesize when singlePass is set, else the portfolio
// core.SynthesizeBestContext. Every explorer and the synthesis service
// choose the algorithm here.
func SynthesizeCell(ctx context.Context, g *cdfg.Graph, lib *library.Library, cons core.Constraints, cfg core.Config, singlePass bool) (*core.Design, error) {
	if singlePass {
		return core.Synthesize(g, lib, cons, cfg)
	}
	return core.SynthesizeBestContext(ctx, g, lib, cons, cfg)
}

// PowerGrid returns the samples of the inclusive power grid [min, max] at
// step, in increasing order. Samples are an accumulating sum, so their
// values are bit-identical wherever the grid is rebuilt. A limit > 0 stops
// after that many samples, which bounds the work of sizing a grid that
// may be too large to build.
func PowerGrid(min, max, step float64, limit int) []float64 {
	var powers []float64
	for p := min; p <= max+1e-9 && (limit <= 0 || len(powers) < limit); p += step {
		powers = append(powers, p)
	}
	return powers
}

// grid is one (deadline x power) exploration: both axes sorted ascending,
// plus how each cell is evaluated.
type grid struct {
	deadlines  []int
	powers     []float64
	singlePass bool
	workers    int
	inFlight   runner.Gauge
	// eval, when non-nil, replaces in-process synthesis (SweepConfig.Eval).
	eval   func(ctx context.Context, cons []core.Constraints) ([]Point, error)
	config core.Config
}

// cell is one evaluated grid cell. design is the synthesized design on the
// in-process path (nil when infeasible or evaluated through eval).
type cell struct {
	Deadline int
	Point
	design *core.Design
}

// evaluate synthesizes every cell of the grid and returns them row-major
// (deadline-major). Cells are independent runs spread over a bounded
// worker pool and placed by index, so the result is identical for every
// worker count and for a remote eval that is faithful to the local one.
// ctx cancellation aborts between synthesis runs with ctx's error; any
// other synthesis failure makes the cell infeasible.
func (gr grid) evaluate(ctx context.Context, g *cdfg.Graph, lib *library.Library) ([]cell, error) {
	n := len(gr.deadlines) * len(gr.powers)
	at := func(i int) core.Constraints {
		return core.Constraints{Deadline: gr.deadlines[i/len(gr.powers)], PowerMax: gr.powers[i%len(gr.powers)]}
	}
	if gr.eval != nil {
		cons := make([]core.Constraints, n)
		for i := range cons {
			cons[i] = at(i)
		}
		pts, err := gr.eval(ctx, cons)
		if err != nil {
			return nil, err
		}
		if len(pts) != n {
			return nil, fmt.Errorf("explore: Eval returned %d points for %d grid cells", len(pts), n)
		}
		cells := make([]cell, n)
		for i, pt := range pts {
			pt.Power = cons[i].PowerMax
			cells[i] = cell{Deadline: cons[i].Deadline, Point: pt}
		}
		return cells, nil
	}
	return runner.Map(ctx, n, runner.Config{Workers: gr.workers, InFlight: gr.inFlight},
		func(ctx context.Context, i int) (cell, error) {
			cons := at(i)
			c := cell{Deadline: cons.Deadline, Point: Point{Power: cons.PowerMax}}
			d, err := SynthesizeCell(ctx, g, lib, cons, gr.config, gr.singlePass)
			if err != nil {
				return c, ctx.Err()
			}
			c.design = d
			c.Feasible = true
			c.Area = d.Area()
			c.Peak = d.Schedule.PeakPower()
			c.FUs = len(d.FUs)
			c.Registers = len(d.Datapath.Registers)
			c.Locked = d.Locked
			c.Stats = d.Stats
			return c, nil
		})
}

// subsume applies subsumption to p given the best design carried along
// one axis from tighter constraints: that design meets p's constraints
// too, so when p is infeasible or carried has a smaller area, p takes
// carried's design fields. p keeps its own Power and Stats, which
// describe the run at p's constraints.
func subsume(p Point, carried *Point) Point {
	if carried == nil || (p.Feasible && carried.Area >= p.Area) {
		return p
	}
	c := *carried
	c.Power, c.Stats = p.Power, p.Stats
	return c
}

// best returns the design to carry past p: p when it is feasible with a
// smaller area than carried, else carried.
func best(carried *Point, p Point) *Point {
	if p.Feasible && (carried == nil || p.Area < carried.Area) {
		return &p
	}
	return carried
}

// subsumeLine applies subsumption along a one-axis grid ordered from the
// tightest constraint to the loosest, making its area non-increasing.
func subsumeLine(cells []cell) {
	var carried *Point
	for i := range cells {
		cells[i].Point = subsume(cells[i].Point, carried)
		carried = best(carried, cells[i].Point)
	}
}
