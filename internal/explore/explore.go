// Package explore is the experiment harness that regenerates the paper's
// evaluation: power-constraint sweeps at fixed time constraints producing
// area-versus-power curves (Figure 2), and the constrained-versus-
// unconstrained power-schedule comparison with battery lifetimes
// (Figure 1). Results are emitted as CSV and as terminal ASCII plots.
package explore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"

	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
	"pchls/internal/power"
	"pchls/internal/runner"
	"pchls/internal/sched"
)

// Summary is what grid assembly reads of a design: the values
// Design.JSON writes for the total area, the peak power, the number of
// functional units and registers, and repair_locked. It is also the
// design part of a cluster point answer; encoding/json writes a float64
// in shortest round-trip form, so Area and Peak cross the wire as the
// engine's exact bits.
type Summary struct {
	// Area is the datapath area of the design.
	Area float64 `json:"area"`
	// Peak is the achieved per-cycle power peak.
	Peak float64 `json:"peak"`
	// FUs and Registers are allocation counts.
	FUs       int `json:"fus"`
	Registers int `json:"registers"`
	// Locked reports whether the design used the backtrack-and-lock
	// repair.
	Locked bool `json:"locked"`
}

// SummaryOf reads the summary of a synthesized design.
func SummaryOf(d *core.Design) Summary {
	return Summary{
		Area:      d.Area(),
		Peak:      d.Schedule.PeakPower(),
		FUs:       len(d.FUs),
		Registers: len(d.Datapath.Registers),
		Locked:    d.Locked,
	}
}

// Point is one sweep sample. Its JSON is a point of the /v1/sweep
// document.
type Point struct {
	// Power is the per-cycle power constraint P< of this sample.
	Power float64 `json:"power"`
	// Feasible reports whether a design was found.
	Feasible bool `json:"feasible"`
	// Summary describes the best design (valid when Feasible).
	Summary
	// Stats counts the work the synthesis run at this grid point performed
	// (scheduler executions, window-cache effectiveness). It describes the
	// run at this point's own budget even when budget subsumption replaces
	// the design with one found at a tighter budget, and is zero for
	// infeasible points.
	Stats core.Stats `json:"-"`
}

// Curve is one area-versus-power series at a fixed time constraint. Its
// JSON is the /v1/sweep document without the total stats.
type Curve struct {
	// Benchmark is the CDFG name.
	Benchmark string `json:"benchmark"`
	// Deadline is the time constraint T.
	Deadline int `json:"deadline"`
	// Points are the samples in increasing power order.
	Points []Point `json:"points"`
}

// Label renders the curve's legend label, e.g. "hal (T=10)".
func (c Curve) Label() string { return fmt.Sprintf("%s (T=%d)", c.Benchmark, c.Deadline) }

// TotalStats aggregates the synthesis work counters over all sweep
// points.
func (c Curve) TotalStats() core.Stats {
	var total core.Stats
	for _, p := range c.Points {
		total = total.Add(p.Stats)
	}
	return total
}

// SweepConfig parameterizes a power sweep.
type SweepConfig struct {
	// PowerMin, PowerMax and Step define the sample grid (inclusive).
	PowerMin, PowerMax, Step float64
	// SinglePass uses the paper's one-shot Synthesize instead of the
	// portfolio SynthesizeBest.
	SinglePass bool
	// NoSubsume disables budget subsumption. By default a design found at
	// a tighter budget replaces a worse design at a looser budget (it is
	// feasible there too), making curves non-increasing over capped
	// budgets by construction. The uncapped 0 budget hands its design on
	// only to budgets its peak fits under.
	NoSubsume bool
	// Workers bounds the number of grid points synthesized concurrently:
	// 0 uses GOMAXPROCS, 1 keeps the legacy serial path. The curve is
	// byte-identical for every setting.
	Workers int
	// InFlight, when non-nil, tracks the worker pool's instantaneous
	// occupancy (see runner.Config.InFlight); the synthesis service uses
	// it to export a runner-occupancy gauge.
	InFlight runner.Gauge
	// Eval, when non-nil, replaces the in-process synthesis of grid
	// cells: it receives the full constraint grid (one entry per sample,
	// in grid order) and must return one Point per constraint, in order,
	// with the Point's design fields and Stats filled (Power is
	// overwritten from the grid). The cluster coordinator uses this to
	// shard cells across a worker fleet; the subsumption assembly below
	// runs on the returned points unchanged, so a remote evaluation is
	// byte-identical to an in-process one.
	Eval func(ctx context.Context, cons []core.Constraints) ([]Point, error)
	// Config is passed through to the synthesizer.
	Config core.Config
}

// ErrBadGrid is returned for empty, non-positive or non-finite grids.
var ErrBadGrid = errors.New("explore: invalid sweep grid")

// Sweep synthesizes g at the fixed deadline for every power budget on the
// grid and returns the resulting curve. Infeasible budgets produce
// Feasible=false points. The graph and library are not modified.
func Sweep(g *cdfg.Graph, lib *library.Library, deadline int, cfg SweepConfig) (Curve, error) {
	return SweepContext(context.Background(), g, lib, deadline, cfg)
}

// SweepContext is Sweep with cancellation: grid points are synthesized by
// a bounded worker pool (cfg.Workers) and ctx cancellation aborts the sweep
// between synthesis runs, returning ctx's error. Results are identical to
// the serial sweep for every worker count: each grid point is an
// independent synthesis run, and the budget-subsumption pass that couples
// neighbouring points runs serially over the collected results.
func SweepContext(ctx context.Context, g *cdfg.Graph, lib *library.Library, deadline int, cfg SweepConfig) (Curve, error) {
	// The bounds are stated positively so that a NaN fails them; an
	// infinite bound or step is rejected too.
	if !(cfg.Step > 0 && cfg.PowerMin >= 0 && cfg.PowerMax >= cfg.PowerMin) || math.IsInf(cfg.PowerMax, 1) || math.IsInf(cfg.Step, 1) {
		return Curve{}, fmt.Errorf("%w: min %g max %g step %g", ErrBadGrid, cfg.PowerMin, cfg.PowerMax, cfg.Step)
	}
	powers := PowerGrid(cfg.PowerMin, cfg.PowerMax, cfg.Step, 0)
	if powers == nil {
		return Curve{}, fmt.Errorf("%w: step %g stops advancing before max %g", ErrBadGrid, cfg.Step, cfg.PowerMax)
	}
	gr := grid{
		deadlines:  []int{deadline},
		powers:     powers,
		singlePass: cfg.SinglePass,
		workers:    cfg.Workers,
		inFlight:   cfg.InFlight,
		eval:       cfg.Eval,
		config:     cfg.Config,
	}
	cells, err := gr.evaluate(ctx, g, lib)
	if err != nil {
		return Curve{}, err
	}
	if !cfg.NoSubsume {
		gr.subsume(cells)
	}
	curve := Curve{Benchmark: g.Name, Deadline: deadline, Points: make([]Point, len(cells))}
	for i, c := range cells {
		curve.Points[i] = c.Point
	}
	return curve, nil
}

// Figure2Spec names one curve of the paper's Figure 2.
type Figure2Spec struct {
	Benchmark string
	Deadline  int
}

// Figure2Specs returns the six curves of the paper's Figure 2:
// hal (T=10), hal (T=17), cosine (T=12), cosine (T=15), cosine (T=19),
// elliptic (T=22).
func Figure2Specs() []Figure2Spec {
	return []Figure2Spec{
		{"hal", 10}, {"hal", 17},
		{"cosine", 12}, {"cosine", 15}, {"cosine", 19},
		{"elliptic", 22},
	}
}

// DefaultGrid returns the power grid of the paper's Figure 2 x-axis
// (0..150): samples every 5 units starting at the library floor.
func DefaultGrid() (min, max, step float64) { return 5, 150, 5 }

// CSV renders the curve as "power,feasible,area,peak,fus,registers,locked"
// rows with a header.
func (c Curve) CSV() string {
	var sb strings.Builder
	sb.WriteString("benchmark,deadline,power,feasible,area,peak,fus,registers,locked\n")
	for _, p := range c.Points {
		fmt.Fprintf(&sb, "%s,%d,%g,%t,%.1f,%.2f,%d,%d,%t\n",
			c.Benchmark, c.Deadline, p.Power, p.Feasible, p.Area, p.Peak, p.FUs, p.Registers, p.Locked)
	}
	return sb.String()
}

// Knee returns the tightest feasible power budget of the curve, or ok =
// false when no point is feasible.
func (c Curve) Knee() (float64, bool) {
	for _, p := range c.Points {
		if p.Feasible {
			return p.Power, true
		}
	}
	return 0, false
}

// PlateauArea returns the area at the loosest budget (the curve's
// asymptote), or ok = false when no point is feasible.
func (c Curve) PlateauArea() (float64, bool) {
	for i := len(c.Points) - 1; i >= 0; i-- {
		if c.Points[i].Feasible {
			return c.Points[i].Area, true
		}
	}
	return 0, false
}

// Plot renders the curves as a terminal scatter plot in the style of
// Figure 2: x = power constraint, y = area. Each curve uses its own
// marker. Infeasible points are omitted.
func Plot(curves []Curve, width, height int) string {
	if width < 20 {
		width = 72
	}
	if height < 8 {
		height = 24
	}
	markers := []byte{'o', 'x', '+', '*', '#', '@', '%', '&'}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, c := range curves {
		for _, p := range c.Points {
			if !p.Feasible {
				continue
			}
			any = true
			minX, maxX = math.Min(minX, p.Power), math.Max(maxX, p.Power)
			minY, maxY = math.Min(minY, p.Area), math.Max(maxY, p.Area)
		}
	}
	if !any {
		return "no feasible points to plot\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for ci, c := range curves {
		mk := markers[ci%len(markers)]
		for _, p := range c.Points {
			if !p.Feasible {
				continue
			}
			x := int(math.Round((p.Power - minX) / (maxX - minX) * float64(width-1)))
			y := int(math.Round((p.Area - minY) / (maxY - minY) * float64(height-1)))
			row := height - 1 - y
			grid[row][x] = mk
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Area vs power constraint (y: %.0f..%.0f, x: %.0f..%.0f)\n", minY, maxY, minX, maxX)
	for r := range grid {
		yVal := maxY - (maxY-minY)*float64(r)/float64(height-1)
		fmt.Fprintf(&sb, "%8.0f |%s|\n", yVal, string(grid[r]))
	}
	fmt.Fprintf(&sb, "%8s +%s+\n", "", strings.Repeat("-", width))
	var legend []string
	for ci, c := range curves {
		legend = append(legend, fmt.Sprintf("%c %s", markers[ci%len(markers)], c.Label()))
	}
	sb.WriteString("          " + strings.Join(legend, "   ") + "\n")
	return sb.String()
}

// Figure1Result packages the Figure 1 reproduction: the unconstrained
// (spiky) versus power-constrained (stretched) schedule of one benchmark,
// and battery lifetimes for both profiles.
type Figure1Result struct {
	// Unconstrained and Constrained are the two schedules.
	Unconstrained, Constrained *sched.Schedule
	// PowerMax is the cap applied to the constrained schedule.
	PowerMax float64
	// StatsU and StatsC summarize the two profiles.
	StatsU, StatsC power.Stats
	// Kibam and Peukert compare battery lifetime under both profiles
	// (profile A = unconstrained, B = constrained).
	Kibam, Peukert power.Comparison
}

// Figure1 reproduces the paper's Figure 1 on a benchmark graph: the
// classical ASAP schedule (undesired, spiky) against the pasap schedule
// under powerMax (desired, capped), plus battery-lifetime deltas on a
// KiBaM and a Peukert battery scaled to the profile.
func Figure1(g *cdfg.Graph, lib *library.Library, powerMax float64) (*Figure1Result, error) {
	bind := sched.UniformFastest(lib)
	unconstrained, err := sched.ASAP(g, bind)
	if err != nil {
		return nil, err
	}
	constrained, err := sched.PASAP(g, bind, sched.Options{PowerMax: powerMax})
	if err != nil {
		return nil, err
	}
	pu := unconstrained.Profile()
	pc := constrained.Profile()
	res := &Figure1Result{
		Unconstrained: unconstrained,
		Constrained:   constrained,
		PowerMax:      powerMax,
		StatsU:        power.Analyze(pu),
		StatsC:        power.Analyze(pc),
	}
	// Battery constants calibrated so the lifetime extension of a capped
	// schedule lands in the 20-30% band the paper cites for low-cost
	// batteries ([1] in the paper): a KiBaM holding ~50 unconstrained
	// periods with a sluggish bound well, and a Peukert exponent of 1.25.
	capacity := res.StatsU.Energy * 50
	kb, err := power.NewKiBaM(capacity, 0.2, 0.03)
	if err != nil {
		return nil, err
	}
	res.Kibam, err = power.Compare(kb, pu, pc, 1<<20)
	if err != nil {
		return nil, err
	}
	pk, err := power.NewPeukert(capacity, 1.25)
	if err != nil {
		return nil, err
	}
	res.Peukert, err = power.Compare(pk, pu, pc, 1<<20)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Report renders the Figure 1 reproduction as text: both profiles as bar
// charts plus the lifetime comparison.
func (r *Figure1Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Undesired power schedule (ASAP, peak %.2f, %d cycles):\n", r.StatsU.Peak, r.StatsU.Cycles)
	sb.WriteString(r.Unconstrained.ProfileString(r.PowerMax))
	fmt.Fprintf(&sb, "\nDesired power schedule (pasap, P< = %.2f, peak %.2f, %d cycles):\n", r.PowerMax, r.StatsC.Peak, r.StatsC.Cycles)
	sb.WriteString(r.Constrained.ProfileString(r.PowerMax))
	fmt.Fprintf(&sb, "\nenergy: unconstrained %.1f, constrained %.1f (invariant)\n", r.StatsU.Energy, r.StatsC.Energy)
	fmt.Fprintf(&sb, "battery lifetime (KiBaM):   %d vs %d task periods (%+.1f%%)\n", r.Kibam.PeriodsA, r.Kibam.PeriodsB, r.Kibam.ExtensionPercent())
	fmt.Fprintf(&sb, "battery lifetime (Peukert): %d vs %d task periods (%+.1f%%)\n", r.Peukert.PeriodsA, r.Peukert.PeriodsB, r.Peukert.ExtensionPercent())
	return sb.String()
}
