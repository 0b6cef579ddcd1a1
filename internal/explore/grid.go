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
// may be too large to build. It returns nil when adding step no longer
// changes a sample short of max (a step below the float spacing of the
// bounds), since the grid would repeat that sample forever.
func PowerGrid(min, max, step float64, limit int) []float64 {
	var powers []float64
	for p := min; p <= max+1e-9 && (limit <= 0 || len(powers) < limit); p += step {
		if p+step == p {
			return nil
		}
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
	TimePoint
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
			cells[i] = cell{TimePoint: TimePoint{Deadline: cons[i].Deadline, Point: pt}}
		}
		return cells, nil
	}
	return runner.Map(ctx, n, runner.Config{Workers: gr.workers, InFlight: gr.inFlight},
		func(ctx context.Context, i int) (cell, error) {
			cons := at(i)
			c := cell{TimePoint: TimePoint{Deadline: cons.Deadline, Point: Point{Power: cons.PowerMax}}}
			d, err := SynthesizeCell(ctx, g, lib, cons, gr.config, gr.singlePass)
			if err != nil {
				return c, ctx.Err()
			}
			c.design = d
			c.Feasible = true
			c.Summary = SummaryOf(d)
			c.Stats = d.Stats
			return c, nil
		})
}

// subsume makes the evaluated cells monotone in both axes over capped
// budgets: each cell inherits from the tighter budgets in its row and
// from the tighter deadline in its column, since a design meeting tighter
// constraints meets looser ones too. A 0 budget caps nothing, yet sorts
// first in its row, so the row carries the designs of uncapped cells
// apart (free): one may exceed a later cap, so it must not displace the
// capped design (row) that every later cap admits. On a one-row or
// one-column grid (a sweep) this is subsumption along its one axis.
func (gr grid) subsume(cells []cell) {
	cols := make([]*Point, len(gr.powers))
	for ti := range gr.deadlines {
		var row, free *Point
		for pi := range gr.powers {
			c := &cells[ti*len(gr.powers)+pi]
			c.Point = inherit(inherit(inherit(c.Point, free), row), cols[pi])
			if c.Power > 0 {
				row = best(row, c.Point)
			} else {
				free = best(free, c.Point)
			}
			cols[pi] = best(cols[pi], c.Point)
		}
	}
}

// inherit applies subsumption to p given the best design carried along
// one axis from tighter constraints. p takes carried's design summary
// when that design meets p's cap (p has none, or carried's peak is within
// it by verify's slack) and p is infeasible or carried has a smaller
// area. Only an uncapped carrier can fail the cap. p keeps its own Power
// and Stats, which describe the run at p's constraints.
func inherit(p Point, carried *Point) Point {
	if carried == nil || (p.Feasible && carried.Area >= p.Area) || (p.Power > 0 && carried.Peak > p.Power+1e-9) {
		return p
	}
	p.Feasible, p.Summary = true, carried.Summary
	return p
}

// best returns the design to carry past p: p when it is feasible with a
// smaller area than carried, else carried.
func best(carried *Point, p Point) *Point {
	if p.Feasible && (carried == nil || p.Area < carried.Area) {
		return &p
	}
	return carried
}
