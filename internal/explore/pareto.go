package explore

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
	"pchls/internal/power"
	"pchls/internal/runner"
	"pchls/internal/sched"
)

// ParetoPoint is one non-dominated design of a multi-objective
// exploration: the constraint pair it was synthesized under, its four
// objective values, and the design itself. Its JSON is a point of the
// /v1/pareto document without the design.
type ParetoPoint struct {
	// Deadline and PowerMax are the grid constraints the design was
	// synthesized under.
	Deadline int     `json:"deadline"`
	PowerMax float64 `json:"power"`
	// Area is the functional-unit area (minimized).
	Area float64 `json:"area"`
	// Latency is the schedule makespan in cycles (minimized).
	Latency int `json:"latency"`
	// Peak is the maximum per-cycle power draw (minimized).
	Peak float64 `json:"peak_power"`
	// Lifetime is the battery lifetime in whole schedule periods under
	// the front's battery model (maximized).
	Lifetime int `json:"lifetime"`
	// Design is the synthesized design achieving the objectives.
	Design *core.Design `json:"-"`
}

// ParetoFront is the non-dominated set over (area, latency, peak power,
// battery lifetime) found by sweeping the constraint grid.
type ParetoFront struct {
	// Benchmark is the CDFG name.
	Benchmark string
	// Evaluated counts the grid cells synthesized; Feasible counts how
	// many yielded a design before domination filtering.
	Evaluated int
	Feasible  int
	// Points are the non-dominated designs sorted by (Area, Latency,
	// Peak, -Lifetime).
	Points []ParetoPoint
}

// ParetoConfig parameterizes a multi-objective exploration.
type ParetoConfig struct {
	// Deadlines are the T values to sample.
	Deadlines []int
	// Powers are the P< values to sample.
	Powers []float64
	// Battery is the model scoring the lifetime objective; nil uses
	// DefaultBattery(g, lib, "kibam").
	Battery power.Battery
	// MaxPeriods caps the battery simulation (<= 0: 1<<20).
	MaxPeriods int
	// SinglePass uses the one-shot Synthesize instead of SynthesizeBest.
	SinglePass bool
	// Workers bounds the number of grid cells synthesized concurrently:
	// 0 uses GOMAXPROCS, 1 keeps the serial path. The front is
	// byte-identical for every setting.
	Workers int
	// InFlight, when non-nil, tracks the worker pool's instantaneous
	// occupancy (see runner.Config.InFlight).
	InFlight runner.Gauge
	// Config is passed through to the synthesizer.
	Config core.Config
}

// NewBattery builds a battery model by name at an explicit capacity:
// "kibam" (or "") is KiBaM(c=0.2, k=0.03), "peukert" is Peukert with
// exponent 1.25 — the standard parameterizations the battery sweep uses.
func NewBattery(model string, capacity float64) (power.Battery, error) {
	switch model {
	case "", "kibam":
		return power.NewKiBaM(capacity, 0.2, 0.03)
	case "peukert":
		return power.NewPeukert(capacity, 1.25)
	default:
		return nil, fmt.Errorf("explore: unknown battery model %q (want kibam or peukert)", model)
	}
}

// DefaultBattery constructs the battery model the explorations use when
// the caller supplies none: a NewBattery model whose capacity is 50x the
// energy of one unconstrained ASAP schedule period under the fastest
// uniform binding (the same sizing as the battery sweep).
func DefaultBattery(g *cdfg.Graph, lib *library.Library, model string) (power.Battery, error) {
	base, err := sched.ASAP(g, sched.UniformFastest(lib))
	if err != nil {
		return nil, err
	}
	energy := 0.0
	for _, p := range base.Profile() {
		energy += p
	}
	return NewBattery(model, energy*50)
}

// ExplorePareto synthesizes the graph at every (T, P<) pair of the grid
// and returns the non-dominated set over (functional-unit area, latency,
// peak per-cycle power, battery lifetime). With a voltage-scaling
// library the synthesizer chooses operating points per operation, so the
// front exposes the area/latency/power/lifetime trades DVS opens up;
// with a single-level library each cell's design is byte-identical to
// the ExploreSurface cell at the same constraints.
func ExplorePareto(g *cdfg.Graph, lib *library.Library, cfg ParetoConfig) (ParetoFront, error) {
	return ExploreParetoContext(context.Background(), g, lib, cfg)
}

// ExploreParetoContext is ExplorePareto with cancellation: grid cells
// are synthesized by a bounded worker pool and ctx cancellation aborts
// between synthesis runs. Objective scoring and domination filtering run
// serially over the collected cells, so the front is identical for every
// worker count.
func ExploreParetoContext(ctx context.Context, g *cdfg.Graph, lib *library.Library, cfg ParetoConfig) (ParetoFront, error) {
	if len(cfg.Deadlines) == 0 || len(cfg.Powers) == 0 {
		return ParetoFront{}, fmt.Errorf("%w: empty pareto grid", ErrBadGrid)
	}
	battery := cfg.Battery
	if battery == nil {
		b, err := DefaultBattery(g, lib, "")
		if err != nil {
			return ParetoFront{}, err
		}
		battery = b
	}
	maxPeriods := cfg.MaxPeriods
	if maxPeriods <= 0 {
		maxPeriods = 1 << 20
	}
	gr := grid{
		deadlines:  append([]int(nil), cfg.Deadlines...),
		powers:     append([]float64(nil), cfg.Powers...),
		singlePass: cfg.SinglePass,
		workers:    cfg.Workers,
		inFlight:   cfg.InFlight,
		config:     cfg.Config,
	}
	sort.Ints(gr.deadlines)
	sort.Float64s(gr.powers)
	cells, err := gr.evaluate(ctx, g, lib)
	if err != nil {
		return ParetoFront{}, err
	}
	front := ParetoFront{Benchmark: g.Name, Evaluated: len(cells)}
	var feas []ParetoPoint
	for _, c := range cells {
		if c.design == nil {
			continue
		}
		pt := ParetoPoint{
			Deadline: c.Deadline, PowerMax: c.Power,
			Area: c.Area, Latency: c.design.Schedule.Length(), Peak: c.Peak,
			Design: c.design,
		}
		if prof := c.design.Schedule.Profile(); len(prof) > 0 {
			pt.Lifetime, _ = battery.Lifetime(prof, maxPeriods)
		}
		feas = append(feas, pt)
	}
	front.Feasible = len(feas)
	// Domination filter with tuple dedup: the first cell (row-major)
	// achieving an objective tuple represents it; a point survives when
	// no other point is at least as good on all four axes and strictly
	// better on one.
	seen := map[[4]float64]bool{}
	for _, p := range feas {
		tuple := [4]float64{p.Area, float64(p.Latency), p.Peak, float64(p.Lifetime)}
		if seen[tuple] {
			continue
		}
		seen[tuple] = true
		dominated := false
		for _, q := range feas {
			if q.Area <= p.Area && q.Latency <= p.Latency && q.Peak <= p.Peak && q.Lifetime >= p.Lifetime &&
				(q.Area < p.Area || q.Latency < p.Latency || q.Peak < p.Peak || q.Lifetime > p.Lifetime) {
				dominated = true
				break
			}
		}
		if !dominated {
			front.Points = append(front.Points, p)
		}
	}
	sort.Slice(front.Points, func(i, j int) bool {
		a, b := front.Points[i], front.Points[j]
		if a.Area != b.Area {
			return a.Area < b.Area
		}
		if a.Latency != b.Latency {
			return a.Latency < b.Latency
		}
		if a.Peak != b.Peak {
			return a.Peak < b.Peak
		}
		return a.Lifetime > b.Lifetime
	})
	return front, nil
}

// CSV renders the front with a header.
func (f ParetoFront) CSV() string {
	var sb strings.Builder
	sb.WriteString("benchmark,deadline,power,area,latency,peak_power,lifetime\n")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "%s,%d,%g,%.1f,%d,%g,%d\n",
			f.Benchmark, p.Deadline, p.PowerMax, p.Area, p.Latency, p.Peak, p.Lifetime)
	}
	return sb.String()
}

// Table renders the front as an aligned list for terminal output.
func (f ParetoFront) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-8s %10s %8s %10s %10s\n", "T", "P<", "area", "latency", "peak", "lifetime")
	for _, p := range f.Points {
		fmt.Fprintf(&sb, "%-8d %-8g %10.1f %8d %10.4g %10d\n",
			p.Deadline, p.PowerMax, p.Area, p.Latency, p.Peak, p.Lifetime)
	}
	return sb.String()
}
