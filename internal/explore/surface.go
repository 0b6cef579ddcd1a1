package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
	"pchls/internal/runner"
)

// SurfacePoint is one sample of the two-dimensional time-power design
// space: the best area found at a (deadline, power budget) pair. Its JSON
// is a point of the /v1/surface document.
type SurfacePoint struct {
	Deadline int     `json:"deadline"`
	Power    float64 `json:"power"`
	Feasible bool    `json:"feasible"`
	Area     float64 `json:"area"`
	// Stats counts the work of the synthesis run at this cell's own
	// constraints (zero when infeasible); subsumption never overwrites it.
	Stats core.Stats `json:"-"`
}

// Surface is a grid over the time-power-constraint space — the space the
// paper's conclusion says it investigated "different regions" of. Its
// JSON is the /v1/surface document without the total stats.
type Surface struct {
	Benchmark string         `json:"benchmark"`
	Points    []SurfacePoint `json:"points"`
}

// TotalStats aggregates the synthesis work counters over all grid cells.
func (s Surface) TotalStats() core.Stats {
	var total core.Stats
	for _, p := range s.Points {
		total = total.Add(p.Stats)
	}
	return total
}

// SurfaceConfig parameterizes a time-power surface exploration.
type SurfaceConfig struct {
	// Deadlines are the T values to sample.
	Deadlines []int
	// Powers are the P< values to sample.
	Powers []float64
	// SinglePass uses the one-shot Synthesize instead of SynthesizeBest.
	SinglePass bool
	// Workers bounds the number of (deadline, power) cells synthesized
	// concurrently: 0 uses GOMAXPROCS, 1 keeps the legacy serial path. The
	// surface is byte-identical for every setting.
	Workers int
	// InFlight, when non-nil, tracks the worker pool's instantaneous
	// occupancy (see runner.Config.InFlight).
	InFlight runner.Gauge
	// Eval, when non-nil, replaces the in-process synthesis of grid
	// cells: it receives the full constraint grid in row-major
	// (deadline-major, sorted) order and must return one Point per cell,
	// in order. See SweepConfig.Eval; only Feasible, Area and Stats are
	// consumed here. The two-axis subsumption assembly below runs on the
	// returned points unchanged, so a remote evaluation is byte-identical
	// to an in-process one.
	Eval func(ctx context.Context, cons []core.Constraints) ([]Point, error)
	// Config is passed through to the synthesizer.
	Config core.Config
}

// ExploreSurface synthesizes the graph at every (T, P<) pair of the grid.
// Within each deadline the power axis is swept tight-to-loose with budget
// subsumption, and for each power budget the time axis inherits designs
// from tighter deadlines (a design meeting a tighter T also meets a looser
// one), so the surface is monotone in both axes over capped budgets by
// construction. A 0 budget is uncapped: its design reaches a capped cell
// only when its peak fits under that cell's cap.
func ExploreSurface(g *cdfg.Graph, lib *library.Library, cfg SurfaceConfig) (Surface, error) {
	return ExploreSurfaceContext(context.Background(), g, lib, cfg)
}

// ExploreSurfaceContext is ExploreSurface with cancellation: the grid cells
// are synthesized by a bounded worker pool (cfg.Workers) and ctx
// cancellation aborts the exploration between synthesis runs. The surface
// is identical to the serial exploration for every worker count: cells are
// independent synthesis runs, and the two-axis subsumption pass that makes
// the surface monotone over capped budgets runs serially over the
// collected results.
func ExploreSurfaceContext(ctx context.Context, g *cdfg.Graph, lib *library.Library, cfg SurfaceConfig) (Surface, error) {
	if len(cfg.Deadlines) == 0 || len(cfg.Powers) == 0 {
		return Surface{}, fmt.Errorf("%w: empty surface grid", ErrBadGrid)
	}
	gr := grid{
		deadlines:  append([]int(nil), cfg.Deadlines...),
		powers:     append([]float64(nil), cfg.Powers...),
		singlePass: cfg.SinglePass,
		workers:    cfg.Workers,
		inFlight:   cfg.InFlight,
		eval:       cfg.Eval,
		config:     cfg.Config,
	}
	sort.Ints(gr.deadlines)
	sort.Float64s(gr.powers)
	cells, err := gr.evaluate(ctx, g, lib)
	if err != nil {
		return Surface{}, err
	}
	gr.subsume(cells)
	surface := Surface{Benchmark: g.Name, Points: make([]SurfacePoint, len(cells))}
	for i, c := range cells {
		surface.Points[i] = SurfacePoint{Deadline: c.Deadline, Power: c.Power, Feasible: c.Feasible, Area: c.Area, Stats: c.Stats}
	}
	return surface, nil
}

// CSV renders the surface with a header.
func (s Surface) CSV() string {
	var sb strings.Builder
	sb.WriteString("benchmark,deadline,power,feasible,area\n")
	for _, p := range s.Points {
		fmt.Fprintf(&sb, "%s,%d,%g,%t,%.1f\n", s.Benchmark, p.Deadline, p.Power, p.Feasible, p.Area)
	}
	return sb.String()
}

// ParetoFront extracts the Pareto-optimal (deadline, power, area) triples:
// a point survives when no feasible point is at least as good on all three
// axes and strictly better on one.
func (s Surface) ParetoFront() []SurfacePoint {
	var feas []SurfacePoint
	for _, p := range s.Points {
		if p.Feasible {
			feas = append(feas, p)
		}
	}
	var front []SurfacePoint
	for _, p := range feas {
		dominated := false
		for _, q := range feas {
			if q.Deadline <= p.Deadline && q.Power <= p.Power && q.Area <= p.Area &&
				(q.Deadline < p.Deadline || q.Power < p.Power || q.Area < p.Area) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].Deadline != front[j].Deadline {
			return front[i].Deadline < front[j].Deadline
		}
		if front[i].Power != front[j].Power {
			return front[i].Power < front[j].Power
		}
		return front[i].Area < front[j].Area
	})
	return front
}

// Table renders the surface as an aligned area matrix (rows: deadlines,
// columns: power budgets; "-" marks infeasible cells).
func (s Surface) Table() string {
	deadlines := []int{}
	powers := []float64{}
	seenT := map[int]bool{}
	seenP := map[float64]bool{}
	for _, p := range s.Points {
		if !seenT[p.Deadline] {
			seenT[p.Deadline] = true
			deadlines = append(deadlines, p.Deadline)
		}
		if !seenP[p.Power] {
			seenP[p.Power] = true
			powers = append(powers, p.Power)
		}
	}
	sort.Ints(deadlines)
	sort.Float64s(powers)
	cell := map[[2]int]SurfacePoint{}
	pIndex := map[float64]int{}
	for i, p := range powers {
		pIndex[p] = i
	}
	for _, p := range s.Points {
		cell[[2]int{p.Deadline, pIndex[p.Power]}] = p
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-6s", "T\\P<")
	for _, p := range powers {
		fmt.Fprintf(&sb, "%9g", p)
	}
	sb.WriteByte('\n')
	for _, T := range deadlines {
		fmt.Fprintf(&sb, "%-6d", T)
		for i := range powers {
			pt, ok := cell[[2]int{T, i}]
			if !ok || !pt.Feasible {
				fmt.Fprintf(&sb, "%9s", "-")
			} else {
				fmt.Fprintf(&sb, "%9.0f", pt.Area)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
