// Package core implements the paper's primary contribution: a heuristic
// high-level synthesis algorithm that solves scheduling, allocation and
// binding simultaneously, minimizing datapath area under both a latency
// constraint T and a maximum power-per-clock-cycle constraint P<.
//
// The algorithm is the power-constrained partial clique partitioning of
// Nielsen & Madsen (DATE 2003): the design space is bounded by the
// power-feasible mobility windows of the pasap/palap schedulers
// (internal/sched); candidate (operation, module) vertices and their
// sharing compatibility form the time-extended compatibility graph V1,
// whose edges the decision loop tests on demand with the earliest-fit
// slot search; synthesis repeatedly evaluates the current graph and
// greedily commits the cheapest decision — bind an operation onto an
// already-allocated functional unit, or allocate a new one — re-deriving
// the windows after every commitment. When a commitment strands a
// remaining operation (empty window), the algorithm backtracks one step
// and locks all uncommitted operations to the last valid pasap schedule,
// after which only binding decisions remain.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"pchls/internal/bind"
	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/runner"
	"pchls/internal/sched"
)

// Constraints are the synthesis constraints of the paper: a latency bound
// in clock cycles and a per-cycle power cap.
type Constraints struct {
	// Deadline is the latency constraint T in cycles (> 0).
	Deadline int
	// PowerMax is the per-cycle power constraint P<; <= 0 disables it. It
	// must be finite.
	PowerMax float64
}

// Perturb seeds controlled randomization of the greedy search, the
// diversity source of the anytime portfolio (internal/portfolio). The
// zero value leaves the paper's deterministic ordering untouched; any
// non-zero setting is still a pure function of the seed, so a perturbed
// run is exactly reproducible.
type Perturb struct {
	// Seed selects the perturbation stream.
	Seed int64
	// Jitter is the relative amplitude of the multiplicative noise applied
	// to the resource-class weight that orders greedy decisions (0.1 means
	// each node's weight is scaled by a seeded factor in [0.9, 1.1]).
	// <= 0 disables weight jitter.
	Jitter float64
	// ShuffleTies replaces the node-ID tie-break among equal-cost
	// candidate decisions with a seeded random priority permutation.
	ShuffleTies bool
	// PlaceLate commits operations at the latest feasible slot of their
	// mobility window instead of the earliest (palap-direction packing).
	PlaceLate bool
}

// enabled reports whether any perturbation is active.
func (p Perturb) enabled() bool { return p.Jitter > 0 || p.ShuffleTies }

// windowPolicy selects how the per-candidate mobility windows are derived
// (Config.windows).
type windowPolicy int

// The window-derivation policies.
const (
	// windowsAuto (the zero value) derives windows with the SDC
	// difference-constraint bounds when there is no power cap or the graph
	// has at least sdcGraphNodes nodes, exhaustively otherwise.
	windowsAuto windowPolicy = iota
	// windowsExhaustive forces the per-candidate pasap/palap pairs.
	windowsExhaustive
	// windowsSDC forces the O(V+E) difference-constraint derivation.
	windowsSDC
)

// partitionPolicy selects hierarchical decomposition (Config.partition).
type partitionPolicy int

// The decomposition policies.
const (
	// partitionAuto (the zero value) decomposes graphs of at least
	// partitionGraphNodes nodes; everything else synthesizes
	// monolithically.
	partitionAuto partitionPolicy = iota
	// partitionOff forces monolithic synthesis.
	partitionOff
	// partitionForce decomposes regardless of size: along component
	// boundaries (a zero-edge cut) when the graph has two or more
	// weakly-connected components, along a balanced min edge cut when it
	// is connected. Both run the same wave driver.
	partitionForce
)

// Config tunes the synthesizer beyond the constraints.
type Config struct {
	// Cost holds the interconnect/register area coefficients; zero value
	// means bind.DefaultCostModel().
	Cost bind.CostModel
	// DisableRepair turns off the backtrack-and-lock feasibility repair
	// (for the ablation experiments). Synthesis then fails where the
	// repair would have rescued it.
	DisableRepair bool
	// SkipAreaDescent turns off the initial area-driven module descent
	// (for the ablation experiments and as a portfolio variant): module
	// assumptions then stay at the fastest power-feasible choice.
	SkipAreaDescent bool
	// Workers bounds how many independent synthesis runs SynthesizeBest's
	// portfolio and peak-shaving ladder evaluate concurrently: 0 uses
	// GOMAXPROCS, 1 keeps the legacy serial path. The returned design is
	// identical for every setting.
	Workers int
	// Select chooses the pasap/palap ready-operation selection policy
	// (default CriticalFirst, the paper's rule). SmallestID is the naive
	// topological policy; the portfolio mixes both directions.
	Select sched.Selection
	// Perturb seeds controlled randomization of the greedy ordering; the
	// zero value keeps the paper's deterministic search.
	Perturb Perturb
	// AreaBound, when positive, aborts synthesis with ErrDominated as soon
	// as the committed functional-unit area alone reaches the bound. The
	// portfolio sets it to the incumbent's total area so provably dominated
	// passes stop early (the incumbent-bounding idea of the brute-force
	// search lifted into the heuristic). The cut is heuristic for quality —
	// the merge pass can still shrink committed FU area — but never unsound:
	// an aborted pass produces no design, and the portfolio only ever adopts
	// verified improvements over an incumbent it already holds.
	AreaBound float64

	// coldWindows drops the window cache before every derivation, so each
	// iteration runs the full per-candidate pasap/palap pairs, and
	// cross-checks the committed power profile against a from-scratch
	// rebuild. Test-only (in-package): the golden equivalence suites use
	// it as the reference the cached run must match.
	coldWindows bool
	// windows and partition override the automatic window-derivation and
	// decomposition choices. Test-only (in-package): the differential
	// suites and the scaling benchmark pin one path with them.
	windows   windowPolicy
	partition partitionPolicy
	// baseProfile, when non-nil, is an ambient per-cycle power draw that
	// the committed profile starts from, so every P< check counts it as
	// committed power. The wave driver threads the power committed by
	// other regions through it, so the stitched union respects the cap by
	// construction. Cycles beyond len(baseProfile) draw zero.
	baseProfile []float64
	// release, when non-nil, holds one entry per node: release[i] > 0
	// forbids node i from starting before that cycle (entries <= 0 are
	// free). The min-cut driver pins a part's boundary sinks to the
	// committed finishes of upstream parts through it; every scheduler run
	// (SDC sweeps, pasap/palap probes, repair locks) sees the same bound.
	release []int
	// due, when non-nil, holds one entry per node: due[i] > 0 forbids node
	// i from completing after that cycle (entries <= 0 unconstrained). The
	// min-cut driver bounds a part's boundary sources with the whole-graph
	// SDC completion bounds so area descent inside one part cannot starve
	// downstream parts of deadline slack.
	due []int
	// kits, when non-nil, is the pool of scheduler scratch (kit) that the
	// synthesis states of one SynthesizeBest call borrow and give back.
	// regionConfig strips it: a part's graph is not the call's.
	kits *sync.Pool
}

func (c Config) cost() bind.CostModel {
	if c.Cost == (bind.CostModel{}) {
		return bind.DefaultCostModel()
	}
	return c.Cost
}

// Decision records one committed synthesis step, for reports.
type Decision struct {
	Node   cdfg.NodeID
	Module string
	FU     int  // instance index
	NewFU  bool // whether the instance was allocated by this decision
	Start  int  // committed start cycle
	Cost   float64
}

// Design is a complete synthesis result.
type Design struct {
	Graph    *cdfg.Graph
	Library  *library.Library
	Cons     Constraints
	Schedule *sched.Schedule
	Datapath *bind.Datapath
	FUs      []bind.FU
	FUOf     []int
	// Locked reports whether the backtrack-and-lock repair was triggered.
	Locked bool
	// Decisions is the commit log in order.
	Decisions []Decision
	// Stats counts the work performed by the run that produced this
	// design (scheduler executions, cache effectiveness, profile probes).
	Stats Stats
}

// Area returns the total datapath area (the synthesis objective).
func (d *Design) Area() float64 { return d.Datapath.TotalArea() }

// Synthesis errors.
var (
	// ErrInfeasible indicates no power- and latency-feasible design exists
	// within the heuristic's search space.
	ErrInfeasible = errors.New("no feasible design under the constraints")
	// ErrUncovered indicates the library lacks a module for some operation.
	ErrUncovered = errors.New("library does not cover all operations")
	// ErrDominated indicates a run was cut off by Config.AreaBound: its
	// committed functional-unit area reached the incumbent bound, so it
	// could not have produced a strictly better design (modulo the merge
	// pass). Only runs with a positive AreaBound can return it.
	ErrDominated = errors.New("dominated by the incumbent area bound")
)

// state is the synthesizer's working state.
type state struct {
	g    *cdfg.Graph
	lib  *library.Library
	cons Constraints
	cfg  Config

	committed []bool
	start     []int // valid where committed (or locked)
	moduleOf  []int // committed module, or assumed module while open
	fuOf      []int // instance index, -1 while uncommitted
	fus       []instance

	locked    bool
	decisions []Decision
	// fuAreaCommitted is the summed module area of the allocated
	// instances, maintained by commit/uncommit for the AreaBound cut.
	fuAreaCommitted float64

	// profile is the per-cycle power drawn by the ambient baseProfile and
	// committed operations over [0, Deadline); commit and uncommit keep it
	// in O(delay). Busy intervals are read from the ops' starts and delays.
	profile []float64
	// undo is the shift merge's undo log: every start, module and profile
	// value its in-place re-timings overwrite (see tryShiftMerge). shiftBuf
	// and packBuf are its reused moving list and ordered insertion list,
	// and moved the instances whose lines a re-timing re-ordered, which
	// rollback re-sorts.
	undo     []undoRec
	shiftBuf []cdfg.NodeID
	packBuf  []cdfg.NodeID
	moved    []int
	// eng is the exhaustive derivation's window cache (empty on the SDC
	// path, which never reads it); opts is its iteration's scheduler
	// options, set by prepareWindows and shared by every override run.
	eng   *engine
	opts  sched.Options
	stats Stats

	// sdc selects the SDC window derivation (useSDC). sdcB holds the SDC
	// bounds last derived (deriveBounds): the SDC path's windows, and on
	// either path the precedence bound that refutes override pairs and
	// descent probes before they run (refutes).
	sdc  bool
	sdcB sched.SDCBounds

	// Hot-path lookup tables and scratch, built once by initTables. The
	// synthesize loop runs the schedulers hundreds of times per design;
	// these make the steady state allocation-free and lookup-free.
	cand        [][]int        // cand[v]: candidate module indices of v's op
	nameToMi    map[string]int // module name -> index
	delays      []int          // delays[v]: delay under moduleOf[v]
	powers      []float64      // powers[v]: per-cycle power under moduleOf[v]
	ovDelays    []int          // single-node override copies of delays/powers
	ovPowers    []float64      //   (windowSchedsFor)
	fixedStarts []int          // schedOpts buffer: committed starts, -1 = free
	kit         *kit           // scheduler scratch bound to g, borrowed by newState
	baseBind    sched.Binding  // binding under the current assumptions
	potential   []int          // per-module uncommitted-implementer counts (markCommitted)
	amortized   []float64      // per-module amortized new-instance area (markCommitted)
	instancesOf [][]int        // per-module instance indices (bucketInstances)
	cm          bind.CostModel
	// pricer holds the merge passes' pricing buffers (area); they are
	// allocated on the first pricing, which a state whose merge pass
	// tries no pair never reaches.
	pricer bind.Pricer
	// descent is the module descent's start buffer (descentProbe).
	descent []int
	// ports is the largest operand count of any node, the length of every
	// instance's producer summary; producerSlab is the unused rest of the
	// slab the summaries are cut from (producerChunk).
	ports        int
	producerSlab []cdfg.NodeID
	// skips counts the work the cost bound of scanDecisions saved: the
	// override window derivations and the new-instance probes it skipped.
	// Only the pruning differential reads it.
	skips struct{ windows, probes int }

	// weight[v] is the decision loop's first ranking key: the area of the
	// cheapest module of v's op, scaled by the seeded jitter factor under
	// Perturb.Jitter. It is fixed for the life of the state, so order —
	// the nodes by descending weight, ties by ascending ID — lets
	// bestDecision stop at the first class lighter than a decision it has.
	weight []float64
	order  []cdfg.NodeID

	// tieRank (nil unless Perturb.ShuffleTies) replaces the node-ID
	// tie-break with a seeded permutation rank.
	tieRank []int
}

// initTables builds the per-state lookup tables and scratch once the
// module assumptions exist. moduleOf must be initialized; committed state
// may be anything.
func (st *state) initTables() {
	n := st.g.N()
	nm := st.lib.Len()
	st.cand = make([][]int, n)
	st.weight = make([]float64, n)
	st.nameToMi = make(map[string]int, nm)
	for mi := 0; mi < nm; mi++ {
		st.nameToMi[st.lib.Module(mi).Name] = mi
	}
	for i := range n {
		node := st.g.Node(cdfg.NodeID(i))
		st.cand[node.ID] = st.lib.Candidates(node.Op)
		if m, err := st.lib.Smallest(node.Op); err == nil {
			st.weight[node.ID] = m.Area
		}
	}
	st.delays = make([]int, n)
	st.powers = make([]float64, n)
	for i, mi := range st.moduleOf {
		m := st.lib.Module(mi)
		st.delays[i] = m.Delay
		st.powers[i] = m.Power
	}
	st.ovDelays = make([]int, n)
	st.ovPowers = make([]float64, n)
	st.fixedStarts = make([]int, n)
	st.baseBind = func(nd cdfg.Node) *library.Module {
		return st.lib.Module(st.moduleOf[nd.ID])
	}
	for i := range n {
		st.ports = max(st.ports, len(st.g.Preds(cdfg.NodeID(i))))
	}
	st.potential = make([]int, nm)
	st.amortized = make([]float64, nm)
	st.instancesOf = make([][]int, nm)
	st.countPotential()
	st.cm = st.cfg.cost()
	if p := st.cfg.Perturb; p.enabled() {
		// One fixed draw order (jitter factors, then the tie permutation)
		// keeps every perturbed run a pure function of the seed.
		rng := rand.New(rand.NewSource(p.Seed))
		if p.Jitter > 0 {
			// Seeded priority-order jitter: perturbed passes explore
			// different commit orders.
			for i := range st.weight {
				st.weight[i] *= 1 + p.Jitter*(2*rng.Float64()-1)
			}
		}
		if p.ShuffleTies {
			st.tieRank = rng.Perm(n)
		}
	}
	st.order = make([]cdfg.NodeID, n)
	for i := range st.order {
		st.order[i] = cdfg.NodeID(i)
	}
	slices.SortStableFunc(st.order, func(a, b cdfg.NodeID) int {
		return cmp.Compare(st.weight[b], st.weight[a])
	})
}

// setModule updates a node's module assumption and the delay/power tables
// that mirror it. Every moduleOf write after initTables must go through
// here.
func (st *state) setModule(v cdfg.NodeID, mi int) {
	st.moduleOf[v] = mi
	m := st.lib.Module(mi)
	st.delays[v] = m.Delay
	st.powers[v] = m.Power
}

// instance is one allocated functional unit. ops lists its operations in
// commit order, which bind.Build and Design.FUs read; line holds the same
// operations in (start, ID) order — the instance's timeline, the busy list
// fit searches. Executions on one instance never overlap, so a line is
// disjoint and its ends ascend with its starts. producers summarizes, per
// operand port, the producers feeding that port of the operations (see
// noteOp); muxEstimate reads it in O(ports).
type instance struct {
	module    int
	ops       []cdfg.NodeID
	line      []cdfg.NodeID
	producers []cdfg.NodeID
}

// The states of a port in an instance's producer summary besides a
// producer's ID: no operation of the instance has the port, or two of
// them read it from different producers.
const (
	portUnseen cdfg.NodeID = -1
	portMixed  cdfg.NodeID = -2
)

// addInstance appends an instance of module mi hosting ops (which it
// keeps) and returns its index; the instance's producer summary is cut
// from the state's slab and summarizes ops.
func (st *state) addInstance(mi int, ops []cdfg.NodeID) int {
	f := len(st.fus)
	st.fus = append(st.fus, instance{module: mi, ops: ops, producers: st.producerChunk()})
	st.summarize(f)
	return f
}

// producerChunk cuts one summary of st.ports entries from the slab, which
// is allocated one instance per node at a time: a state holds at most one
// instance per node, so a synthesis rarely cuts more.
func (st *state) producerChunk() []cdfg.NodeID {
	if len(st.producerSlab) < st.ports {
		st.producerSlab = make([]cdfg.NodeID, st.ports*st.g.N())
	}
	c := st.producerSlab[:st.ports:st.ports]
	st.producerSlab = st.producerSlab[st.ports:]
	return c
}

// noteOp folds operation x's operand producers into instance f's summary:
// a port seen for the first time takes x's producer, and a port whose
// producer differs from x's becomes mixed.
func (st *state) noteOp(f int, x cdfg.NodeID) {
	sum := st.fus[f].producers
	for port, p := range st.g.Preds(x) {
		switch sum[port] {
		case portUnseen:
			sum[port] = p
		case p, portMixed: // unchanged
		default:
			sum[port] = portMixed
		}
	}
}

// summarize recomputes instance f's producer summary from its operations,
// after an operation left it (uncommit, unmerge).
func (st *state) summarize(f int) {
	sum := st.fus[f].producers
	for k := range sum {
		sum[k] = portUnseen
	}
	for _, x := range st.fus[f].ops {
		st.noteOp(f, x)
	}
}

// byStart orders operations by (start, ID), the order of timelines.
func (st *state) byStart(a, b cdfg.NodeID) int {
	return cmp.Or(cmp.Compare(st.start[a], st.start[b]), cmp.Compare(a, b))
}

// insertLine inserts x into a timeline at its (start, ID) position.
func (st *state) insertLine(line []cdfg.NodeID, x cdfg.NodeID) []cdfg.NodeID {
	k, _ := slices.BinarySearchFunc(line, x, st.byStart)
	return slices.Insert(line, k, x)
}

// mergeLines appends the merge of timelines a and b to dst.
func (st *state) mergeLines(dst, a, b []cdfg.NodeID) []cdfg.NodeID {
	for len(a) > 0 && len(b) > 0 {
		if st.byStart(a[0], b[0]) < 0 {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// newState validates the inputs and builds the synthesizer's working
// state with the initial (fastest power-feasible) module assumptions, a
// committed profile of the ambient power alone and the window derivation
// of its size regime.
func newState(g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config) (*state, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid graph: %w", err)
	}
	if cons.Deadline <= 0 {
		return nil, fmt.Errorf("core: deadline %d must be positive", cons.Deadline)
	}
	if math.IsNaN(cons.PowerMax) || math.IsInf(cons.PowerMax, 0) {
		return nil, fmt.Errorf("core: power cap %g must be finite", cons.PowerMax)
	}
	if missing := lib.Covers(g); missing != nil {
		return nil, fmt.Errorf("core: operations %v: %w", missing, ErrUncovered)
	}
	st := &state{
		g: g, lib: lib, cons: cons, cfg: cfg,
		committed: make([]bool, g.N()),
		start:     make([]int, g.N()),
		moduleOf:  make([]int, g.N()),
		fuOf:      make([]int, g.N()),
		profile:   make([]float64, cons.Deadline),
		kit:       cfg.borrowKit(g),
	}
	copy(st.profile, cfg.baseProfile)
	for i := range st.fuOf {
		st.fuOf[i] = -1
	}
	// Assume, per operation, the fastest power-feasible module; this is
	// the most latency-optimistic assumption, so if it misses the deadline
	// no uniform refinement can meet it either.
	for i := range g.N() {
		n := g.Node(cdfg.NodeID(i))
		mi, err := fastestFeasible(lib, cons, n.Op)
		if err != nil {
			return nil, err
		}
		st.moduleOf[n.ID] = mi
	}
	st.initTables()
	st.sdc = useSDC(g, cons, cfg)
	st.eng = newEngine(st)
	return st, nil
}

// sdcGraphNodes gates the SDC window derivation of capped runs by graph
// size. Without a power cap pasap/palap degenerate to ASAP/ALAP under the
// committed starts, so the exhaustive windows equal the SDC bounds and
// every uncapped run takes the O(V+E) sweep. Under a cap the exhaustive
// windows are tighter (they encode P<; the SDC bounds do not): below this
// many nodes that tightness is cheap and worth keeping, above it the
// per-candidate scheduler pairs are the dominant cost and the relaxed
// windows win. All seven classic benchmarks are far below the threshold,
// so their capped runs keep the paper-faithful path. See DESIGN.md §13.
const sdcGraphNodes = 160

// useSDC reports whether synthesis of g under cons should derive
// candidate windows from the SDC difference-constraint bounds.
func useSDC(g *cdfg.Graph, cons Constraints, cfg Config) bool {
	switch cfg.windows {
	case windowsExhaustive:
		return false
	case windowsSDC:
		return true
	}
	return cons.PowerMax <= 0 || g.N() >= sdcGraphNodes
}

// partitionGraphNodes gates hierarchical decomposition by graph size:
// below it even a multi-component graph synthesizes monolithically (the
// classic path; byte-identical results matter more than the split's
// savings at these sizes). Above it, a graph with two or more
// weakly-connected components splits along them; a connected graph is cut
// along a balanced min edge cut only from mincutGraphNodes on, with the
// severed data dependencies re-imposed across the parts.
const partitionGraphNodes = 128

// usePartition reports whether synthesis of g should try hierarchical
// decomposition.
func usePartition(g *cdfg.Graph, cfg Config) bool {
	switch cfg.partition {
	case partitionOff:
		return false
	case partitionForce:
		return true
	}
	return g.N() >= partitionGraphNodes
}

// expandLevels lowers a multi-level library into its single-level
// expansion before synthesis (library.Expand): each voltage operating
// point becomes an ordinary module candidate, so the decision loop picks
// an operating point exactly the way it picks a module, and the
// per-candidate tables gain the level dimension through the candidate
// lists themselves.
// Single-level libraries pass through untouched (pointer-identical), so
// every pre-voltage input keeps byte-identical designs.
func expandLevels(lib *library.Library) (*library.Library, error) {
	elib, err := lib.Expand()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return elib, nil
}

// Synthesize runs the combined scheduling/allocation/binding algorithm.
// Multi-level libraries are first lowered into their single-level
// expansion (one module per voltage operating point; see expandLevels).
// Large graphs are decomposed, along their weakly-connected components when
// they have several and along a balanced min edge cut when a connected
// graph is large enough: the parts synthesize wave by wave on the worker
// pool and the results are stitched back together (see
// synthesizePartitioned); everything else runs the monolithic greedy loop.
func Synthesize(g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config) (*Design, error) {
	lib, err := expandLevels(lib)
	if err != nil {
		return nil, err
	}
	if usePartition(g, cfg) {
		return synthesizePartitioned(g, lib, cons, cfg)
	}
	return synthesizeMono(g, lib, cons, cfg)
}

// synthesizeMono is the monolithic synthesis loop — the paper's algorithm
// over one graph, with no decomposition.
func synthesizeMono(g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config) (*Design, error) {
	st, err := newState(g, lib, cons, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	if err := st.refineInitialModules(); err != nil {
		return nil, err
	}

	for remaining := g.N(); remaining > 0; remaining-- {
		dec, ok := st.bestDecision()
		if !ok {
			if err := st.repair(); err != nil {
				return nil, err
			}
			dec, ok = st.bestDecision()
			if !ok {
				return nil, fmt.Errorf("core: no decision available after repair: %w", ErrInfeasible)
			}
		}
		reuse := st.probeCovers(dec)
		st.commit(dec)
		if !st.locked {
			probe, err := st.postCommitProbe(reuse)
			if err != nil {
				// The commitment stranded the remaining operations:
				// backtrack one step and lock (the paper's repair).
				st.uncommit(dec)
				if err := st.repair(); err != nil {
					return nil, err
				}
				// Re-evaluate under the locked schedule.
				dec, ok = st.bestDecision()
				if !ok {
					return nil, fmt.Errorf("core: no decision available after repair: %w", ErrInfeasible)
				}
				st.commit(dec)
			} else {
				st.noteProbe(dec, probe)
			}
		}
		// Incumbent cut: once the committed FU area alone reaches the
		// bound, this run cannot beat the incumbent it was raced against
		// (up to merge-pass shrinkage — see Config.AreaBound).
		if cfg.AreaBound > 0 && st.fuAreaCommitted >= cfg.AreaBound {
			return nil, fmt.Errorf("core: committed FU area %.6g reached the bound %.6g: %w",
				st.fuAreaCommitted, cfg.AreaBound, ErrDominated)
		}
	}
	// Post-pass: merge instances whenever that reduces the exact area.
	st.mergePass()
	return st.finish()
}

// SynthesizeBest wraps Synthesize with two cheap meta-heuristics and
// returns the smallest-area feasible design:
//
//   - a two-point portfolio over the initial module assumptions (with and
//     without the area-driven descent), and
//   - iterative peak shaving: the per-cycle power cap is repeatedly
//     tightened to just below the peak of the best design found, which
//     narrows the pasap/palap windows and often steers the greedy search
//     to a cheaper design. Every candidate is synthesized under a cap at
//     or below cons.PowerMax, so the result always satisfies the original
//     constraints (which it reports).
//
// The single-pass Synthesize is the paper's algorithm; SynthesizeBest is
// the recommended entry point when area quality matters more than a ~10x
// constant in synthesis time.
func SynthesizeBest(g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config) (*Design, error) {
	return SynthesizeBestContext(context.Background(), g, lib, cons, cfg)
}

// synthResult captures one portfolio run so runner.Map can carry synthesis
// failures as data (an infeasible candidate is not a pool error).
type synthResult struct {
	d   *Design
	err error
}

// SynthesizeBestContext is SynthesizeBest with cancellation and a bounded
// worker pool: the two portfolio variants and the caps of the peak-shaving
// ladder are independent synthesis runs evaluated cfg.Workers at a time.
//
// The returned design is identical for every worker count. The ladder's
// serial semantics — walk caps from loosest to tightest, stopping after
// 3 consecutive infeasible caps — are preserved by
// evaluating caps speculatively in chunks and replaying the stop rule over
// the results in cap order; chunk results past the serial stopping point
// are discarded. Cancellation is checked between synthesis runs: a cancelled
// ctx returns its error promptly without starting new runs.
func SynthesizeBestContext(ctx context.Context, g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config) (*Design, error) {
	// Expand voltage levels once up front; the per-cap Synthesize calls
	// below then see a single-level library and pass it through untouched.
	lib, err := expandLevels(lib)
	if err != nil {
		return nil, err
	}
	// Every run of the call synthesizes g: its states share one pool of
	// scheduler scratch.
	cfg.kits = new(sync.Pool)
	altCfg := cfg
	altCfg.SkipAreaDescent = !cfg.SkipAreaDescent
	configs := [2]Config{cfg, altCfg}
	port, err := runner.Map(ctx, len(configs), runner.Config{Workers: cfg.Workers},
		func(_ context.Context, i int) (synthResult, error) {
			d, err := Synthesize(g, lib, cons, configs[i])
			return synthResult{d, err}, nil
		})
	if err != nil {
		return nil, err
	}
	best, firstErr := port[0].d, port[0].err
	maxPeak := 0.0
	if best != nil {
		maxPeak = best.Schedule.PeakPower()
	}
	if alt := port[1].d; port[1].err == nil && alt != nil {
		if p := alt.Schedule.PeakPower(); p > maxPeak {
			maxPeak = p
		}
		if best == nil || alt.Area() < best.Area() {
			best = alt
		}
	}
	if best == nil {
		return nil, firstErr
	}
	// Peak shaving over a geometric ladder of internal caps, from the
	// loosest meaningful cap down to the feasibility floor. Tighter caps
	// narrow the pasap/palap windows, which often steers the greedy search
	// to a cheaper design even when the cap itself is slack.
	top := cons.PowerMax
	if top <= 0 || top > maxPeak/0.95 {
		// Unconstrained (or very loose): no cap above the portfolio peak
		// can change anything.
		top = maxPeak / 0.95
	}
	// Materialize the ladder with the same repeated multiplication the
	// serial loop used so cap values are bit-identical.
	var caps []float64
	for cap := top * 0.95; cap > 0.1; cap *= 0.95 {
		caps = append(caps, cap)
	}
	chunk, err := runner.ResolveWorkers(cfg.Workers, len(caps))
	if err != nil {
		return nil, err
	}
	failures := 0
	for lo := 0; lo < len(caps) && failures < 3; lo += chunk {
		hi := lo + chunk
		if hi > len(caps) {
			hi = len(caps)
		}
		shaved, err := runner.Map(ctx, hi-lo, runner.Config{Workers: cfg.Workers},
			func(_ context.Context, i int) (synthResult, error) {
				d, err := Synthesize(g, lib, Constraints{Deadline: cons.Deadline, PowerMax: caps[lo+i]}, cfg)
				return synthResult{d, err}, nil
			})
		if err != nil {
			return nil, err
		}
		for _, r := range shaved {
			if failures >= 3 {
				break // the serial walk would have stopped here
			}
			if r.err != nil {
				failures++
				continue
			}
			failures = 0
			if r.d.Area() < best.Area() {
				best = r.d
			}
		}
	}
	best.Cons = cons
	return best, nil
}

// fastestFeasible picks the minimum-delay module for op whose power fits
// the constraint, breaking ties toward smaller area.
func fastestFeasible(lib *library.Library, cons Constraints, op cdfg.Op) (int, error) {
	best := -1
	for _, mi := range lib.Candidates(op) {
		m := lib.Module(mi)
		if cons.PowerMax > 0 && m.Power > cons.PowerMax+1e-9 {
			continue
		}
		if best < 0 {
			best = mi
			continue
		}
		b := lib.Module(best)
		if m.Delay < b.Delay || (m.Delay == b.Delay && m.Area < b.Area) {
			best = mi
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("core: no module for %s fits P< = %.3g: %w", op, cons.PowerMax, ErrInfeasible)
	}
	return best, nil
}

// schedOpts returns the scheduler options with committed (or locked)
// operations fixed. The FixedStarts buffer and the delay/power tables are
// shared state scratch: their contents are stable within one synthesis
// iteration, which is as long as any scheduler run reads them.
func (st *state) schedOpts() sched.Options {
	st.fillFixedStarts()
	return sched.Options{
		PowerMax:    st.cons.PowerMax,
		Select:      st.cfg.Select,
		Base:        st.cfg.baseProfile,
		FixedStarts: st.fixedStarts,
		Delays:      st.delays,
		Powers:      st.powers,
		Arena:       st.kit.arena,
		Release:     st.cfg.release,
		Due:         st.cfg.due,
	}
}

// fillFixedStarts refreshes the committed-starts buffer schedOpts and the
// SDC derivation share.
func (st *state) fillFixedStarts() {
	for i, c := range st.committed {
		if c || st.locked {
			st.fixedStarts[i] = st.start[i]
		} else {
			st.fixedStarts[i] = -1
		}
	}
}

// currentPASAP computes the pasap schedule of the whole graph under the
// current state and verifies it meets the deadline; it is the validity
// probe run after every commitment.
func (st *state) currentPASAP() (*sched.Schedule, error) {
	st.stats.SchedulerRuns++
	s, err := sched.PASAP(st.g, st.baseBind, st.schedOpts())
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", ErrInfeasible, err)
	}
	if s.Length() > st.cons.Deadline {
		return nil, fmt.Errorf("core: pasap length %d exceeds T = %d: %w", s.Length(), st.cons.Deadline, ErrInfeasible)
	}
	return s, nil
}

// probeCovers reports whether the state's last exact probe (eng.probe,
// the pasap schedule of the state before d) is already d's post-commit
// probe, so the commit needs no scheduler run: it placed d's node at
// d.Start under the module d commits with. Fixing a node where the greedy
// pass put it changes no placement — the replay-invariance argument of
// noteProbe. It must be asked before d is committed. The coldWindows
// oracle never reuses a probe.
func (st *state) probeCovers(d Decision) bool {
	p := st.eng.probe
	return p != nil && !st.cfg.coldWindows && p.Start[d.Node] == d.Start &&
		st.moduleOf[d.Node] == st.moduleIndexOf(d)
}

// postCommitProbe returns the validity probe of the commitment just made:
// the last probe when probeCovers held before it, a full run otherwise.
func (st *state) postCommitProbe(reuse bool) (*sched.Schedule, error) {
	if !reuse {
		return st.currentPASAP()
	}
	if probeReused != nil {
		probeReused(st, st.eng.probe)
	}
	return st.eng.probe, nil
}

// probeReused, when set, is called with the state and the probe at every
// post-commit probe reuse. Test-only: TestReusedProbeMatchesFullRun checks
// each reuse against a full run.
var probeReused func(st *state, probe *sched.Schedule)

// windowSchedsFor runs the override pasap/palap pair for candidate j of
// node v (module st.cand[v][j]) under opts, the iteration's base options
// (schedOpts), and returns both start arrays — the engine caches them to
// prove entries valid across later commitments. ok=false means the pair
// is infeasible.
// The runs write into the candidate's slab slot and, while the base pair
// is current, replay it (sched.Reference); the coldWindows oracle runs
// both in full into fresh schedules instead.
func (st *state) windowSchedsFor(v cdfg.NodeID, j int, opts sched.Options) (early, late []int, ok bool) {
	m := st.lib.Module(st.cand[v][j])
	if st.cons.PowerMax > 0 && m.Power > st.cons.PowerMax+1e-9 {
		return nil, nil, false
	}
	// Single-node override: copy the base tables and patch v.
	copy(st.ovDelays, st.delays)
	copy(st.ovPowers, st.powers)
	st.ovDelays[v] = m.Delay
	st.ovPowers[v] = m.Power
	opts.Delays, opts.Powers = st.ovDelays, st.ovPowers
	if st.cfg.coldWindows {
		return st.fullPair(opts)
	}
	if st.eng.refOK {
		opts.Ref, opts.RefNode = &st.kit.ref, v
	}
	early, late = st.overrideStarts(v, j)
	st.stats.SchedulerRuns++
	// A pasap longer than T fails the pair; stop it at the first node that
	// ends past T instead of running it out (PALAP ignores Stop).
	opts.Stop = st.cons.Deadline
	if sched.PASAPStarts(st.g, st.baseBind, opts, early) != nil {
		return nil, nil, false
	}
	st.stats.SchedulerRuns++
	if sched.PALAPStarts(st.g, st.baseBind, st.cons.Deadline, opts, late) != nil {
		return nil, nil, false
	}
	return early, late, true
}

// fullPair is windowSchedsFor's coldWindows oracle: the override pair run
// in full into fresh schedules.
func (st *state) fullPair(opts sched.Options) (early, late []int, ok bool) {
	st.stats.SchedulerRuns++
	e, err := sched.PASAP(st.g, st.baseBind, opts)
	if err != nil || e.Length() > st.cons.Deadline {
		return nil, nil, false
	}
	st.stats.SchedulerRuns++
	l, err := sched.PALAP(st.g, st.baseBind, st.cons.Deadline, opts)
	if err != nil {
		return nil, nil, false
	}
	return e.Start, l.Start, true
}

// length returns the makespan of the given starts and delays.
func length(start, delay []int) int {
	l := 0
	for i, s := range start {
		l = max(l, s+delay[i])
	}
	return l
}

// committedProfile returns the per-cycle power drawn by the ambient
// baseProfile and committed operations over [0, Deadline), summed from
// scratch.
func (st *state) committedProfile() []float64 {
	p := make([]float64, st.cons.Deadline)
	copy(p, st.cfg.baseProfile)
	for i, c := range st.committed {
		if !c {
			continue
		}
		for cyc := st.start[i]; cyc < st.start[i]+st.delays[i] && cyc < len(p); cyc++ {
			p[cyc] += st.powers[i]
		}
	}
	return p
}

// rebuildCommitted recomputes the profile and the instance timelines from
// the committed state. The clique-partition and stitch paths commit in
// bulk without going through commit(), and the shift merge re-times in
// place; they call this before the next probe.
func (st *state) rebuildCommitted() {
	clear(st.profile)
	copy(st.profile, st.cfg.baseProfile)
	for f := range st.fus {
		fu := &st.fus[f]
		for _, op := range fu.ops {
			for c := st.start[op]; c < st.start[op]+st.delays[op] && c < len(st.profile); c++ {
				st.profile[c] += st.powers[op]
			}
		}
		fu.line = append(fu.line[:0], fu.ops...)
		slices.SortFunc(fu.line, st.byStart)
	}
}

// auditCommitted panics unless the maintained profile equals a
// from-scratch rebuild, every instance timeline equals its ops sorted by
// (start, ID), and the potential counts and amortized estimates equal a
// full recount. Test-only invariant, checked under Config.coldWindows.
func (st *state) auditCommitted() {
	for c, want := range st.committedProfile() {
		if math.Abs(st.profile[c]-want) > 1e-9 {
			panic(fmt.Sprintf("core: committed profile audit failed: cycle %d draws %g, rebuilt %g", c, st.profile[c], want))
		}
	}
	for f, fu := range st.fus {
		want := slices.Clone(fu.ops)
		slices.SortFunc(want, st.byStart)
		if !slices.Equal(fu.line, want) {
			panic(fmt.Sprintf("core: timeline audit failed: instance %d line %v, ops in start order %v", f, fu.line, want))
		}
	}
	potential, amortized := slices.Clone(st.potential), slices.Clone(st.amortized)
	st.countPotential()
	if !slices.Equal(potential, st.potential) || !slices.Equal(amortized, st.amortized) {
		panic(fmt.Sprintf("core: potential audit failed: maintained %v / %v, recounted %v / %v",
			potential, amortized, st.potential, st.amortized))
	}
}

// commit applies a decision, folding it into the profile.
func (st *state) commit(d Decision) {
	mi := st.moduleIndexOf(d)
	m := st.lib.Module(mi)
	st.markCommitted(d.Node, true)
	st.start[d.Node] = d.Start
	st.setModule(d.Node, mi)
	if d.NewFU {
		st.addInstance(mi, nil)
		st.fuAreaCommitted += m.Area
	}
	st.fuOf[d.Node] = d.FU
	f := &st.fus[d.FU]
	f.ops = append(f.ops, d.Node)
	f.line = st.insertLine(f.line, d.Node)
	st.noteOp(d.FU, d.Node)
	for c := d.Start; c < d.Start+m.Delay && c < len(st.profile); c++ {
		st.profile[c] += m.Power
	}
	st.decisions = append(st.decisions, d)
}

// uncommit reverts the most recent decision (must be d).
func (st *state) uncommit(d Decision) {
	// Revert the profile before the module assumption is restored: the
	// entry was made with the committed module.
	m := st.lib.Module(st.moduleOf[d.Node])
	for c := d.Start; c < d.Start+m.Delay && c < len(st.profile); c++ {
		st.profile[c] -= m.Power
	}
	// A backtrack changes placements non-locally, so the window cache is
	// dropped whole.
	st.eng.invalidateWindows()
	st.stats.FullInvalidations++
	st.markCommitted(d.Node, false)
	st.fuOf[d.Node] = -1
	f := &st.fus[d.FU]
	f.ops = f.ops[:len(f.ops)-1]
	k, _ := slices.BinarySearchFunc(f.line, d.Node, st.byStart)
	f.line = slices.Delete(f.line, k, k+1)
	if d.NewFU {
		st.fuAreaCommitted -= st.lib.Module(st.fus[d.FU].module).Area
		st.fus = st.fus[:len(st.fus)-1]
	} else {
		st.summarize(d.FU)
	}
	st.decisions = st.decisions[:len(st.decisions)-1]
	// Restore the assumed module for the node.
	if mi, err := fastestFeasible(st.lib, st.cons, st.g.Node(d.Node).Op); err == nil {
		st.setModule(d.Node, mi)
	}
}

// noteProbe records the successful post-commit pasap probe with the
// engine: the probe is the exact base Early schedule of the next
// iteration (saving one full run), and the commitment is folded into the
// cache's validity state.
//
// A cached scheduler-run pair survives the commitment of node u at cycle
// s exactly when both of its runs already placed u at s under the
// committed module: fixing a node where the greedy schedulers put it
// anyway changes neither schedule — per-cycle power sums are symmetric,
// added power never opens earlier slots, and each clean node re-settles
// on its previous start — so the cached windows remain byte-identical to
// a recompute. Entries failing the condition are dropped; when the base
// pair itself passes (the new probe equals the previous one and the late
// schedule had u at s), the next iteration reuses all base windows with
// no scheduler run at all, otherwise it re-derives them from the probe
// plus one full palap.
func (st *state) noteProbe(d Decision, probe *sched.Schedule) {
	eng := st.eng
	if eng.warm {
		u, s := int(d.Node), d.Start
		moduleMatch := eng.assumed != nil && st.moduleOf[u] == eng.assumed[u]
		for k := range eng.over {
			ent := &eng.over[k]
			if !ent.cached {
				continue
			}
			own := eng.slotOf[u] <= k && k < eng.slotOf[u+1]
			if !own && moduleMatch && ent.earlyStart != nil &&
				ent.earlyStart[u] == s && ent.lateStart[u] == s {
				continue
			}
			*ent = winEntry{}
			st.stats.WindowInvalidations++
		}
		eng.baseValid = moduleMatch && eng.baseWin[u].Late == s && sameStarts(eng.probe, probe)
	}
	eng.probe = probe
}

func (st *state) moduleIndexOf(d Decision) int {
	if mi, ok := st.nameToMi[d.Module]; ok {
		return mi
	}
	panic("core: decision references unknown module " + d.Module)
}

// repair implements the paper's feasibility repair: lock every uncommitted
// operation to the last valid pasap schedule, so that only allocation and
// binding decisions remain.
func (st *state) repair() error {
	if st.cfg.DisableRepair {
		return fmt.Errorf("core: stranded operation with repair disabled: %w", ErrInfeasible)
	}
	if st.locked {
		return fmt.Errorf("core: stranded operation in locked mode: %w", ErrInfeasible)
	}
	s, err := st.currentPASAP()
	if err != nil {
		return err
	}
	for i := range st.committed {
		if !st.committed[i] {
			st.start[i] = s.Start[i]
		}
	}
	st.locked = true
	return nil
}

// finish validates (check) and assembles the Design.
func (st *state) finish() (*Design, error) {
	if err := st.check(); err != nil {
		return nil, err
	}
	s := sched.Schedule{
		G:      st.g,
		Start:  append([]int(nil), st.start...),
		Delay:  append([]int(nil), st.delays...),
		Power:  append([]float64(nil), st.powers...),
		Module: make([]string, st.g.N()),
	}
	for i, mi := range st.moduleOf {
		s.Module[i] = st.lib.Module(mi).Name
	}
	fus := make([]bind.FU, len(st.fus))
	for i, f := range st.fus {
		fus[i] = bind.FU{Module: st.lib.Module(f.module), Ops: append([]cdfg.NodeID(nil), f.ops...)}
	}
	dp, err := bind.Build(st.g, &s, fus, st.fuOf, st.cm)
	if err != nil {
		return nil, fmt.Errorf("core: internal error: %w", err)
	}
	return &Design{
		Graph:     st.g,
		Library:   st.lib,
		Cons:      st.cons,
		Schedule:  &s,
		Datapath:  dp,
		FUs:       fus,
		FUOf:      append([]int(nil), st.fuOf...),
		Locked:    st.locked,
		Decisions: st.decisions,
		Stats:     st.stats,
	}, nil
}
