// Package pchls is a power-constrained high-level synthesis library: it
// schedules, allocates and binds data-flow graphs onto a functional-unit
// library, minimizing datapath area under a latency constraint T and a
// maximum power-per-clock-cycle constraint P<, as in S.F. Nielsen and
// J. Madsen, "Power Constrained High-Level Synthesis of Battery Powered
// Digital Systems", DATE 2003.
//
// The typical flow:
//
//	g := pchls.MustBenchmark("hal")                   // or build/parse a Graph
//	lib := pchls.Table1()                             // the paper's FU library
//	design, err := pchls.SynthesizeBest(g, lib, pchls.Constraints{
//	        Deadline: 10,                             // T, clock cycles
//	        PowerMax: 20,                             // P<, per-cycle power
//	}, pchls.Config{})
//	fmt.Println(design.Report())
//	verilog, err := pchls.EmitVerilog(design, 16)     // RTL back end
//
// Beyond synthesis, the package exposes the building blocks: the CDFG
// substrate, the power-constrained pasap/palap schedulers and classical
// baselines, battery models for lifetime evaluation, and the experiment
// harness that regenerates the paper's figures.
package pchls

import (
	"context"
	"io"

	"pchls/internal/bench"
	"pchls/internal/bind"
	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/pipeline"
	"pchls/internal/portfolio"
	"pchls/internal/power"
	"pchls/internal/report"
	"pchls/internal/rtl"
	"pchls/internal/sched"
	"pchls/internal/verify"
)

// Data-flow graph substrate.
type (
	// Graph is a data-flow graph of primitive operations.
	Graph = cdfg.Graph
	// Node is one operation instance in a Graph.
	Node = cdfg.Node
	// NodeID identifies a node within one Graph.
	NodeID = cdfg.NodeID
	// Op is a primitive operation kind.
	Op = cdfg.Op
)

// The operation alphabet (matching the paper's Table 1 rows).
const (
	// Add is two's-complement addition ("+").
	Add = cdfg.Add
	// Sub is subtraction ("-").
	Sub = cdfg.Sub
	// Cmp is magnitude comparison (">").
	Cmp = cdfg.Cmp
	// Mul is multiplication ("*").
	Mul = cdfg.Mul
	// Input is an input transfer ("imp").
	Input = cdfg.Input
	// Output is an output transfer ("xpt").
	Output = cdfg.Output
)

// NewGraph returns an empty data-flow graph with the given name.
func NewGraph(name string) *Graph { return cdfg.New(name) }

// ParseGraph reads a graph in the line-oriented .cdfg text format
// ("graph <name>" / "node <name> <op>" / "edge <from> <to>").
func ParseGraph(r io.Reader) (*Graph, error) { return cdfg.Parse(r) }

// ParseGraphString is ParseGraph over a string.
func ParseGraphString(s string) (*Graph, error) { return cdfg.ParseString(s) }

// ParseGraphJSON decodes and validates a graph from the JSON schema used
// by the synthesis service's request payloads ({"name", "nodes", "edges"}).
// Graphs also marshal back to that schema via encoding/json.
func ParseGraphJSON(data []byte) (*Graph, error) { return cdfg.ParseJSON(data) }

// Functional-unit library.
type (
	// Library is a validated collection of functional-unit modules.
	Library = library.Library
	// Module describes one functional-unit type.
	Module = library.Module
	// OperatingPoint is one voltage operating point of a module: the
	// delay and per-cycle power the module exhibits at that supply
	// voltage.
	OperatingPoint = library.OperatingPoint
)

// Table1 returns the paper's functional-unit library (Table 1): add, sub,
// comp, ALU, serial and parallel multipliers, input and output units.
func Table1() *Library { return library.Table1() }

// NewLibrary builds a validated library from modules.
func NewLibrary(modules []Module) (*Library, error) { return library.New(modules) }

// ParseLibrary reads a library in the text format
// ("module <name> <op>[,<op>...] <area> <delay> <power>").
func ParseLibrary(r io.Reader) (*Library, error) { return library.Parse(r) }

// ParseLibraryJSON decodes and validates a library from the JSON module
// list used by the synthesis service's request payloads. Libraries also
// marshal back to that schema via encoding/json.
func ParseLibraryJSON(data []byte) (*Library, error) { return library.ParseJSON(data) }

// Benchmarks.

// Benchmark returns a named benchmark CDFG: "hal", "cosine", "elliptic"
// (the paper's Figure 2 set) or "fir16", "ar", "diffeq2", "fft8".
func Benchmark(name string) (*Graph, error) { return bench.ByName(name) }

// MustBenchmark is Benchmark that panics on unknown names.
func MustBenchmark(name string) *Graph {
	g, err := bench.ByName(name)
	if err != nil {
		panic(err)
	}
	return g
}

// BenchmarkNames lists the available benchmark names in a fixed order.
func BenchmarkNames() []string {
	return []string{"hal", "cosine", "elliptic", "fir16", "ar", "diffeq2", "fft8"}
}

// Synthesis.
type (
	// Constraints are the latency (Deadline, cycles) and per-cycle power
	// (PowerMax; <= 0 disables) constraints.
	Constraints = core.Constraints
	// Config tunes the synthesizer beyond the constraints: cost model,
	// ablation switches (DisableRepair, SkipAreaDescent), worker count,
	// search perturbation and bounds.
	Config = core.Config
	// Design is a complete synthesis result: schedule, allocation,
	// binding, datapath and area breakdown.
	Design = core.Design
	// Decision is one committed synthesis step.
	Decision = core.Decision
	// Stats counts the work a synthesis run performed: scheduler runs,
	// window-cache hits, misses and invalidations, slot probes against the
	// power profile, the SDC derivations of uncapped and large runs, and
	// the decomposition counters of large graphs (regions, repairs, cut
	// edges, cross-region shares). IncrementalRuns, Fallbacks,
	// CompatPatches and BoundTightenings always read 0. Available on
	// Design.Stats and aggregated over sweeps via
	// Curve.TotalStats/Surface.TotalStats.
	Stats = core.Stats
	// CostModel holds register/multiplexer area coefficients.
	CostModel = bind.CostModel
)

// Synthesis errors (match with errors.Is).
var (
	// ErrInfeasible indicates no design satisfies the constraints within
	// the heuristic's search space.
	ErrInfeasible = core.ErrInfeasible
	// ErrUncovered indicates the library lacks a module for some
	// operation of the graph.
	ErrUncovered = core.ErrUncovered
)

// Parse errors (match with errors.Is). The graph and library parsers —
// text and JSON alike — classify every structural reject with one of
// these sentinels.
var (
	// ErrDuplicateName marks a reused node name.
	ErrDuplicateName = cdfg.ErrDuplicateName
	// ErrCycle marks a directed cycle in the graph.
	ErrCycle = cdfg.ErrCycle
	// ErrSelfLoop marks an edge whose endpoints coincide.
	ErrSelfLoop = cdfg.ErrSelfLoop
	// ErrDuplicateEdge marks a repeated edge declaration.
	ErrDuplicateEdge = cdfg.ErrDuplicateEdge
	// ErrUnknownNode marks an edge referencing an undeclared node.
	ErrUnknownNode = cdfg.ErrUnknownNode
	// ErrBadDelay marks a library module whose delay is below one cycle.
	ErrBadDelay = library.ErrBadDelay
	// ErrBadArea marks a library module with a negative or non-finite area.
	ErrBadArea = library.ErrBadArea
	// ErrBadPower marks a library module with a negative or non-finite power.
	ErrBadPower = library.ErrBadPower
	// ErrDuplicateModule marks a reused library module name.
	ErrDuplicateModule = library.ErrDuplicateModule
	// ErrBadVoltage marks an operating point with a non-positive or
	// non-finite supply voltage.
	ErrBadVoltage = library.ErrBadVoltage
	// ErrDuplicateLevel marks a module declaring the same voltage twice.
	ErrDuplicateLevel = library.ErrDuplicateLevel
	// ErrUnknownLevelModule marks a level line naming an undefined module.
	ErrUnknownLevelModule = library.ErrUnknownLevelModule
)

// Synthesize runs the paper's one-pass combined scheduling/allocation/
// binding algorithm.
func Synthesize(g *Graph, lib *Library, cons Constraints, cfg Config) (*Design, error) {
	return core.Synthesize(g, lib, cons, cfg)
}

// SynthesizeBest wraps Synthesize with a starting-point portfolio and
// peak-shaving meta-heuristics; it is the recommended entry point. Its
// independent synthesis runs are evaluated concurrently per Config.Workers
// (0 = GOMAXPROCS, 1 = serial); the result is identical for every setting.
func SynthesizeBest(g *Graph, lib *Library, cons Constraints, cfg Config) (*Design, error) {
	return core.SynthesizeBest(g, lib, cons, cfg)
}

// SynthesizeBestContext is SynthesizeBest with cancellation: ctx aborts the
// portfolio between synthesis runs.
func SynthesizeBestContext(ctx context.Context, g *Graph, lib *Library, cons Constraints, cfg Config) (*Design, error) {
	return core.SynthesizeBestContext(ctx, g, lib, cons, cfg)
}

// DefaultCostModel returns the register/mux area coefficients used by the
// experiments.
func DefaultCostModel() CostModel { return bind.DefaultCostModel() }

// Anytime portfolio synthesis.
type (
	// PortfolioConfig tunes the anytime portfolio: passes per round (K),
	// round budget, perturbation seed, subgraph and expansion limits,
	// worker count, and the base engine Config every pass derives from.
	PortfolioConfig = portfolio.Config
	// PortfolioResult is a portfolio outcome: the best verified design
	// plus baseline QoR and search statistics (passes, incumbent
	// adoptions, bound aborts, splice improvements).
	PortfolioResult = portfolio.Result
)

// SynthesizePortfolio runs the anytime, feedback-guided portfolio: K
// perturbed greedy passes per round race the incumbent area bound in
// parallel, then the incumbent's worst-mobility / highest-area subgraph
// is re-synthesized exhaustively and spliced back. Every adopted design
// passes the independent validator, and when the single greedy pass is
// feasible the portfolio's total area is never worse than it. The result
// is a pure function of (inputs, cfg) — byte-identical for every worker
// count and across repeated runs with the same Seed.
func SynthesizePortfolio(g *Graph, lib *Library, cons Constraints, cfg PortfolioConfig) (*PortfolioResult, error) {
	return portfolio.Synthesize(g, lib, cons, cfg)
}

// SynthesizePortfolioContext is SynthesizePortfolio with cancellation:
// ctx aborts the portfolio between synthesis runs.
func SynthesizePortfolioContext(ctx context.Context, g *Graph, lib *Library, cons Constraints, cfg PortfolioConfig) (*PortfolioResult, error) {
	return portfolio.SynthesizeContext(ctx, g, lib, cons, cfg)
}

// Scheduling building blocks.
type (
	// Schedule maps every node to a start cycle with module-implied delay
	// and power.
	Schedule = sched.Schedule
	// ScheduleOptions parameterizes the power-constrained schedulers.
	ScheduleOptions = sched.Options
	// Binding chooses the module executing each node during scheduling.
	Binding = sched.Binding
	// Window is a feasible start-time interval.
	Window = sched.Window
)

// ASAP computes the classical unconstrained as-soon-as-possible schedule.
func ASAP(g *Graph, bind Binding) (*Schedule, error) { return sched.ASAP(g, bind) }

// ALAP computes the classical as-late-as-possible schedule under deadline.
func ALAP(g *Graph, bind Binding, deadline int) (*Schedule, error) {
	return sched.ALAP(g, bind, deadline)
}

// PASAP computes the paper's power-constrained ASAP schedule.
func PASAP(g *Graph, bind Binding, opts ScheduleOptions) (*Schedule, error) {
	return sched.PASAP(g, bind, opts)
}

// PALAP computes the paper's power-constrained ALAP schedule.
func PALAP(g *Graph, bind Binding, deadline int, opts ScheduleOptions) (*Schedule, error) {
	return sched.PALAP(g, bind, deadline, opts)
}

// UniformFastest binds every node to the fastest implementing module.
func UniformFastest(lib *Library) Binding { return sched.UniformFastest(lib) }

// UniformSmallest binds every node to the smallest implementing module.
func UniformSmallest(lib *Library) Binding { return sched.UniformSmallest(lib) }

// Battery and profile analysis.
type (
	// Battery simulates discharge under a repeated power profile.
	Battery = power.Battery
	// ProfileStats summarizes a per-cycle power profile.
	ProfileStats = power.Stats
	// LifetimeComparison reports two profiles' lifetimes on one battery.
	LifetimeComparison = power.Comparison
)

// NewKiBaM builds a kinetic battery model (capacity, available fraction c
// in (0,1), equalization rate k in (0,1]).
func NewKiBaM(capacity, c, k float64) (Battery, error) { return power.NewKiBaM(capacity, c, k) }

// NewPeukert builds a Peukert's-law battery (capacity, exponent >= 1).
func NewPeukert(capacity, exponent float64) (Battery, error) {
	return power.NewPeukert(capacity, exponent)
}

// AnalyzeProfile computes power-profile statistics.
func AnalyzeProfile(profile []float64) ProfileStats { return power.Analyze(profile) }

// CompareLifetime runs two profiles on a battery (A first, B second).
func CompareLifetime(b Battery, profileA, profileB []float64, maxPeriods int) (LifetimeComparison, error) {
	return power.Compare(b, profileA, profileB, maxPeriods)
}

// Experiments.
type (
	// SweepConfig parameterizes an area-versus-power sweep.
	SweepConfig = explore.SweepConfig
	// Curve is one area-versus-power series at fixed T.
	Curve = explore.Curve
	// CurvePoint is one sweep sample.
	CurvePoint = explore.Point
	// Figure1Result packages the Figure 1 reproduction.
	Figure1Result = explore.Figure1Result
)

// Sweep synthesizes the graph across a power grid at fixed deadline. Grid
// points are synthesized concurrently per cfg.Workers (0 = GOMAXPROCS,
// 1 = serial); the curve is byte-identical for every setting.
func Sweep(g *Graph, lib *Library, deadline int, cfg SweepConfig) (Curve, error) {
	return explore.Sweep(g, lib, deadline, cfg)
}

// SweepContext is Sweep with cancellation: ctx aborts the sweep between
// synthesis runs.
func SweepContext(ctx context.Context, g *Graph, lib *Library, deadline int, cfg SweepConfig) (Curve, error) {
	return explore.SweepContext(ctx, g, lib, deadline, cfg)
}

// PlotCurves renders curves as a terminal ASCII plot in the style of the
// paper's Figure 2.
func PlotCurves(curves []Curve, width, height int) string {
	return explore.Plot(curves, width, height)
}

// Figure1 reproduces the paper's Figure 1 motivation on a benchmark.
func Figure1(g *Graph, lib *Library, powerMax float64) (*Figure1Result, error) {
	return explore.Figure1(g, lib, powerMax)
}

// Battery-sweep experiment types.
type (
	// BatteryCurve is the lifetime-extension-versus-power-cap series.
	BatteryCurve = explore.BatteryCurve
	// BatteryPoint is one battery sweep sample.
	BatteryPoint = explore.BatteryPoint
)

// BatterySweep measures, for each cap, the battery-lifetime extension of
// the pasap-capped schedule over the unconstrained one. Caps are evaluated
// concurrently (GOMAXPROCS workers); the curve matches the serial order.
func BatterySweep(g *Graph, lib *Library, caps []float64) (BatteryCurve, error) {
	return explore.BatterySweep(g, lib, caps)
}

// BatterySweepContext is BatterySweep with cancellation and an explicit
// worker count (0 = GOMAXPROCS, 1 = serial).
func BatterySweepContext(ctx context.Context, g *Graph, lib *Library, caps []float64, workers int) (BatteryCurve, error) {
	return explore.BatterySweepContext(ctx, g, lib, caps, workers)
}

// Time-power surface types.
type (
	// Surface is an area grid over the time-power-constraint space.
	Surface = explore.Surface
	// SurfaceConfig parameterizes a surface exploration.
	SurfaceConfig = explore.SurfaceConfig
	// SurfacePoint is one (deadline, power, area) sample.
	SurfacePoint = explore.SurfacePoint
)

// ExploreSurface synthesizes the graph over a (deadline x power) grid —
// the "different regions in the time-power-constraint space" of the
// paper's conclusion. Cells are synthesized concurrently per cfg.Workers
// (0 = GOMAXPROCS, 1 = serial); the surface is byte-identical for every
// setting.
func ExploreSurface(g *Graph, lib *Library, cfg SurfaceConfig) (Surface, error) {
	return explore.ExploreSurface(g, lib, cfg)
}

// ExploreSurfaceContext is ExploreSurface with cancellation: ctx aborts the
// exploration between synthesis runs.
func ExploreSurfaceContext(ctx context.Context, g *Graph, lib *Library, cfg SurfaceConfig) (Surface, error) {
	return explore.ExploreSurfaceContext(ctx, g, lib, cfg)
}

// Multi-objective Pareto exploration.
type (
	// ParetoFront is the non-dominated set over (area, latency, peak
	// power, battery lifetime).
	ParetoFront = explore.ParetoFront
	// ParetoConfig parameterizes a multi-objective exploration.
	ParetoConfig = explore.ParetoConfig
	// ParetoPoint is one non-dominated design with its objectives.
	ParetoPoint = explore.ParetoPoint
)

// SynthesizePareto sweeps the constraint grid and returns the
// non-dominated designs over (functional-unit area, latency, peak
// per-cycle power, battery lifetime). With a voltage-scaling library the
// synthesizer picks operating points per operation, exposing the trades
// dynamic voltage scaling opens up; cfg.Battery (default: KiBaM sized at
// 50x one unconstrained schedule period) scores the lifetime objective.
func SynthesizePareto(g *Graph, lib *Library, cfg ParetoConfig) (ParetoFront, error) {
	return explore.ExplorePareto(g, lib, cfg)
}

// SynthesizeParetoContext is SynthesizePareto with cancellation: ctx
// aborts the exploration between synthesis runs.
func SynthesizeParetoContext(ctx context.Context, g *Graph, lib *Library, cfg ParetoConfig) (ParetoFront, error) {
	return explore.ExploreParetoContext(ctx, g, lib, cfg)
}

// DefaultBattery builds the battery model SynthesizePareto uses when the
// config carries none: model "kibam" (or "") or "peukert", with capacity
// 50x the energy of one unconstrained ASAP schedule period.
func DefaultBattery(g *Graph, lib *Library, model string) (Battery, error) {
	return explore.DefaultBattery(g, lib, model)
}

// Pipelined (loop-folded) implementations — an extension beyond the paper.
type (
	// PipelineResult is one modulo-scheduled pipelined implementation.
	PipelineResult = pipeline.Result
)

// PipelineSchedule computes a power-constrained modulo schedule at the
// given initiation interval: successive loop iterations start every II
// cycles and the power cap applies to the folded steady-state profile.
func PipelineSchedule(g *Graph, bind Binding, lib *Library, ii, deadline int, powerMax float64) (*PipelineResult, error) {
	return pipeline.Schedule(g, bind, lib, ii, deadline, powerMax)
}

// PipelineExplore sweeps initiation intervals from the power-implied
// minimum up to maxII, returning the feasible throughput/area/power
// trade-off points.
func PipelineExplore(g *Graph, bind Binding, lib *Library, maxII, deadline int, powerMax float64) ([]*PipelineResult, error) {
	return pipeline.Explore(g, bind, lib, maxII, deadline, powerMax)
}

// PipelineMinII returns the smallest initiation interval the power cap
// could possibly admit (energy per iteration / cap).
func PipelineMinII(g *Graph, bind Binding, powerMax float64) (int, error) {
	return pipeline.MinII(g, bind, powerMax)
}

// EmitVerilog generates the FSMD implementation of a design and renders it
// as a Verilog-2001 subset module with the given datapath width (16 when
// width <= 0).
func EmitVerilog(d *Design, width int) (string, error) {
	m, err := rtl.Generate(d.Graph, d.Schedule, d.Datapath, d.FUOf, width)
	if err != nil {
		return "", err
	}
	return m.Verilog(), nil
}

// SimulateDesign executes the design's FSMD implementation cycle by cycle
// on concrete inputs (keyed by Input node name) and returns the values on
// the output ports (keyed by Output node name).
func SimulateDesign(d *Design, inputs map[string]int64) (map[string]int64, error) {
	m, err := rtl.Generate(d.Graph, d.Schedule, d.Datapath, d.FUOf, 0)
	if err != nil {
		return nil, err
	}
	return rtl.Simulate(m, inputs)
}

// Verify checks a design against every constraint invariant of the paper
// with an independent validator (internal/verify) that shares no code
// with the synthesis engine: precedence edges respected, makespan <= T,
// per-cycle power <= P<, exclusive module-instance occupancy, binding
// type-compatibility, and functional-unit area accounting. A nil return
// means the design is a correct solution of its stated problem; the
// returned error joins every violation, each matchable with errors.Is
// against the verify package's sentinel errors.
//
// Verify validates constraint satisfaction; VerifyDesign validates
// functional behaviour (FSMD simulation against data-flow evaluation).
// The two are complementary.
func Verify(d *Design) error { return verify.Check(core.VerifyInput(d)) }

// Validator violation classes (match with errors.Is against Verify's
// return).
var (
	// ErrVerifyPrecedence: a consumer starts before its producer ends.
	ErrVerifyPrecedence = verify.ErrPrecedence
	// ErrVerifyDeadline: the makespan exceeds T.
	ErrVerifyDeadline = verify.ErrDeadline
	// ErrVerifyPower: some cycle exceeds P<.
	ErrVerifyPower = verify.ErrPower
	// ErrVerifyOverlap: two operations overlap on one instance.
	ErrVerifyOverlap = verify.ErrOverlap
	// ErrVerifyBinding: an operation is bound to an incompatible module.
	ErrVerifyBinding = verify.ErrBinding
	// ErrVerifyArea: reported FU area disagrees with the allocation.
	ErrVerifyArea = verify.ErrArea
	// ErrVerifyLevel: a voltage-level violation — an undefined operating
	// point, or one instance claimed at two supply voltages.
	ErrVerifyLevel = verify.ErrLevel
)

// Random-instance generation (property testing and cdfgtool gen).
type (
	// GenGraphConfig parameterizes RandomGraph.
	GenGraphConfig = gen.GraphConfig
	// GenLibraryConfig parameterizes RandomLibrary.
	GenLibraryConfig = gen.LibraryConfig
	// GenPreset names a ready-made DAG-shape recipe for RandomGraph
	// (chain, wide, layered, mixed, blocks).
	GenPreset = gen.Preset
)

// GenPresets lists the known graph-shape presets in a fixed order.
func GenPresets() []GenPreset { return gen.Presets() }

// GenPresetConfig returns the GenGraphConfig of the named preset sized
// to the given computation-node count.
func GenPresetConfig(p GenPreset, nodes int) (GenGraphConfig, error) {
	return gen.PresetConfig(p, nodes)
}

// RandomGraph generates a random layered CDFG fully determined by
// (seed, cfg); the result always passes validation.
func RandomGraph(seed int64, cfg GenGraphConfig) *Graph { return gen.Graph(seed, cfg) }

// RandomLibrary generates a random validated functional-unit library
// fully determined by (seed, cfg); it covers every operation.
func RandomLibrary(seed int64, cfg GenLibraryConfig) *Library { return gen.Library(seed, cfg) }

// VerifyDesign checks the design end to end: the FSMD simulation must
// agree with the direct data-flow evaluation of the source graph on the
// given inputs.
func VerifyDesign(d *Design, inputs map[string]int64) error {
	m, err := rtl.Generate(d.Graph, d.Schedule, d.Datapath, d.FUOf, 0)
	if err != nil {
		return err
	}
	return rtl.Verify(m, inputs)
}

// DumpVCD simulates the design's FSMD and writes a Value Change Dump
// waveform trace (controller state, registers, outputs) to w.
func DumpVCD(d *Design, inputs map[string]int64, width int, w io.Writer) error {
	m, err := rtl.Generate(d.Graph, d.Schedule, d.Datapath, d.FUOf, width)
	if err != nil {
		return err
	}
	return rtl.DumpVCD(m, inputs, w)
}

// EmitTestbench generates a self-checking Verilog testbench that drives
// the design's FSMD with the given inputs and asserts the outputs expected
// from data-flow evaluation.
func EmitTestbench(d *Design, inputs map[string]int64) (string, error) {
	m, err := rtl.Generate(d.Graph, d.Schedule, d.Datapath, d.FUOf, 16)
	if err != nil {
		return "", err
	}
	return rtl.Testbench(m, inputs)
}

// SynthesizeCliquePartition is the static one-shot clique-partitioning
// variant (windows derived once, no per-decision re-derivation) kept as an
// ablation baseline; prefer Synthesize or SynthesizeBest.
func SynthesizeCliquePartition(g *Graph, lib *Library, cons Constraints, cfg Config) (*Design, error) {
	return core.SynthesizeCliquePartition(g, lib, cons, cfg)
}

// Time sweeps (the orthogonal cut through the time-power space).
type (
	// TimeSweepConfig parameterizes an area-versus-latency sweep.
	TimeSweepConfig = explore.TimeSweepConfig
	// TimeCurve is one area-versus-latency series at fixed P<.
	TimeCurve = explore.TimeCurve
)

// TimeSweep synthesizes the graph across a deadline grid at a fixed power
// constraint. Grid points are synthesized concurrently per cfg.Workers
// (0 = GOMAXPROCS, 1 = serial); the curve is byte-identical for every
// setting.
func TimeSweep(g *Graph, lib *Library, powerMax float64, cfg TimeSweepConfig) (TimeCurve, error) {
	return explore.TimeSweep(g, lib, powerMax, cfg)
}

// TimeSweepContext is TimeSweep with cancellation: ctx aborts the sweep
// between synthesis runs.
func TimeSweepContext(ctx context.Context, g *Graph, lib *Library, powerMax float64, cfg TimeSweepConfig) (TimeCurve, error) {
	return explore.TimeSweepContext(ctx, g, lib, powerMax, cfg)
}

// DesignHTML renders a self-contained HTML report of a design: headline
// metrics, a Gantt chart of the schedule, the power profile against the
// constraint, the area breakdown and the decision log.
func DesignHTML(d *Design) string { return report.DesignHTML(d) }

// SweepHTML renders a self-contained HTML report of area-versus-power
// curves (the Figure 2 reproduction).
func SweepHTML(curves []Curve) string { return report.SweepHTML(curves) }

// Figure1HTML renders the Figure 1 reproduction (both power profiles and
// the battery-lifetime table) as a self-contained HTML page.
func Figure1HTML(r *Figure1Result) string { return report.Figure1HTML(r) }

// SurfaceHTML renders the time-power surface as an HTML heatmap with the
// Pareto front marked.
func SurfaceHTML(s Surface) string { return report.SurfaceHTML(s) }
