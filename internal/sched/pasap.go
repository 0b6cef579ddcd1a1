package sched

import (
	"errors"
	"fmt"

	"pchls/internal/cdfg"
)

// Selection chooses how PASAP picks the next operation among the ready
// ones — the paper's "pick an unscheduled operator" step, which it leaves
// unspecified.
type Selection int

// The selection policies.
const (
	// CriticalFirst picks the ready operation with the longest
	// delay-weighted path to a sink (default): less critical operations
	// absorb the power-driven stretching.
	CriticalFirst Selection = iota
	// SmallestID picks the lowest-numbered ready operation — a plain
	// topological sweep, the most literal reading of the paper.
	SmallestID
)

// Options parameterizes the power-constrained schedulers.
type Options struct {
	// PowerMax is the per-cycle power constraint P<. Zero or negative means
	// unconstrained (pasap degenerates to classical ASAP).
	PowerMax float64
	// Select picks the next ready operation (default CriticalFirst).
	Select Selection
	// Base is an ambient per-cycle power profile that is added to the
	// profile of the graph being scheduled before checking PowerMax —
	// typically the power already committed by bound operations during
	// synthesis. Cycles beyond len(Base) have zero ambient power.
	Base []float64
	// FixedStarts predetermines the start times of some nodes: when non-nil
	// it has one entry per node, and FixedStarts[i] >= 0 fixes node i at
	// that start (negative entries are free). Fixed nodes are placed first
	// (their power is accounted) and never moved; the scheduler only places
	// the remaining nodes. The scheduler never mutates or retains the
	// slice, so callers may reuse one buffer across runs.
	FixedStarts []int
	// Delays/Powers, when both non-nil, give each node's execution delay
	// and per-cycle power directly, indexed by node ID, and the Binding
	// is never called. Returned schedules alias the two slices (and leave
	// Schedule.Module nil), so the caller must keep their contents
	// unchanged for as long as it reads a returned schedule. This is the
	// synthesizer's hot path: it maintains the tables incrementally
	// instead of paying one Binding call per node per run.
	Delays []int
	Powers []float64
	// Arena recycles scheduler scratch (topological orders, the reversed
	// graph, profiles, conversion buffers) across runs over the same
	// graph. Nil means allocate per run. An arena bound to a different
	// graph is ignored. Not safe for concurrent use.
	Arena *Arena
	// Release, when non-nil, holds one entry per node: Release[i] > 0
	// forbids node i from starting before that cycle (entries <= 0 are
	// free). The partitioned synthesizer uses releases to pin a part's
	// boundary sinks to the committed finishes of upstream parts, so a cut
	// edge u -> v behaves like an in-graph precedence edge even though u is
	// not in the scheduled graph. Fixed nodes are exempt: their starts were
	// produced under the same constraints.
	Release []int
	// Due, when non-nil, holds one entry per node: Due[i] > 0 forbids node
	// i from completing after that cycle (entries <= 0 are unconstrained).
	// The partitioned synthesizer uses dues on boundary sources so that
	// slack-hungry refinement inside one part cannot push a cut edge's
	// producer past what downstream parts need to meet the deadline.
	Due []int
}

// baseAt returns the ambient power at cycle c.
func (o *Options) baseAt(c int) float64 {
	if c < len(o.Base) {
		return o.Base[c]
	}
	return 0
}

// fixedAt returns node id's predetermined start, if any.
func (o *Options) fixedAt(id cdfg.NodeID) (int, bool) {
	if o.FixedStarts != nil && o.FixedStarts[id] >= 0 {
		return o.FixedStarts[id], true
	}
	return 0, false
}

// check rejects per-node tables whose length does not match the graph, so
// a short slice is an error rather than an index panic mid-run.
func (o *Options) check(g *cdfg.Graph) error {
	for _, f := range [...]struct {
		name string
		n    int
		set  bool
	}{
		{"FixedStarts", len(o.FixedStarts), o.FixedStarts != nil},
		{"Delays", len(o.Delays), o.Delays != nil},
		{"Powers", len(o.Powers), o.Powers != nil},
		{"Release", len(o.Release), o.Release != nil},
		{"Due", len(o.Due), o.Due != nil},
	} {
		if f.set && f.n != g.N() {
			return fmt.Errorf("sched: options: %s has %d entries for %d nodes", f.name, f.n, g.N())
		}
	}
	return nil
}

// releaseAt returns node id's earliest allowed start (0 when free).
func (o *Options) releaseAt(id cdfg.NodeID) int {
	if o.Release != nil && o.Release[id] > 0 {
		return o.Release[id]
	}
	return 0
}

// dueAt returns node id's latest allowed completion (0 when unconstrained).
func (o *Options) dueAt(id cdfg.NodeID) int {
	if o.Due != nil && o.Due[id] > 0 {
		return o.Due[id]
	}
	return 0
}

// arenaFor returns the arena when it may serve graph g, else nil.
func (o *Options) arenaFor(g *cdfg.Graph) *Arena {
	if o.Arena.owns(g) {
		return o.Arena
	}
	return nil
}

// PASAP computes the power-constrained as-soon-as-possible schedule of the
// paper (algorithm "pasap (P<)"): each operation is placed at its earliest
// precedence-feasible start time t_i = max over predecessors of (t_j +
// d_j), delayed by the smallest execution offset o_i >= 0 such that the
// per-cycle power constraint holds over the whole execution interval
// [t_i+o_i, t_i+o_i+d_i-1].
//
// The paper's "pick an unscheduled operator" step is implemented as
// critical-path-first selection among ready operations (all predecessors
// placed): the ready operation with the longest delay-weighted path to a
// sink is placed first, so less critical operations absorb the power-driven
// stretching; ties go to the lowest node ID. Module delays are at least 1
// (each delay is counted as at least 1 here), so a node always ranks above
// its successors and the whole selection sequence is one counting sort of
// the nodes by that rank: O(V+E+P) per run, P the critical-path length.
// With PowerMax <= 0 the result is classical ASAP regardless of selection
// order.
//
// It returns an error wrapping ErrPowerInfeasible if some operation's own
// power exceeds PowerMax, and an error if the graph is cyclic, a fixed
// placement is negative, or a per-node option table does not have one
// entry per node.
func PASAP(g *cdfg.Graph, bind Binding, opts Options) (*Schedule, error) {
	return pasapWithin(g, bind, opts, 0)
}

// pasapWithin is the shared core of PASAP and PALAP. horizon caps the
// last cycle (exclusive) the scheduler may use; PALAP passes its
// deadline. Zero means automatic: len(Base) + sumDelay*maxDelay + 1,
// where sumDelay is the total delay of all nodes and maxDelay the
// largest one (at least 1). The serial bound sumDelay is not enough:
// greedy stretching in a fragmented power profile can overshoot it, since
// one busy cycle can block up to maxDelay candidate windows of a long
// operation. The automatic horizon also reaches
// sumDelay*maxDelay past the end of every fixed or released node, so
// their transitive successors fit after them.
func pasapWithin(g *cdfg.Graph, bind Binding, opts Options, horizon int) (*Schedule, error) {
	if err := opts.check(g); err != nil {
		return nil, err
	}
	a := opts.arenaFor(g)
	var order []cdfg.NodeID
	var err error
	switch opts.Select {
	case SmallestID:
		order, err = a.topoFor(g)
	default:
		order, err = criticalFirstOrder(g, bind, &opts, a)
	}
	if err != nil {
		return nil, err
	}
	s := newScheduleOpts(g, bind, &opts)
	if horizon <= 0 {
		sumDelay, maxD := 0, 1
		for _, d := range s.Delay {
			sumDelay += d
			if d > maxD {
				maxD = d
			}
		}
		horizon = len(opts.Base) + sumDelay*maxD + 1
		// Fixed and released nodes may sit arbitrarily late; leave room for
		// their transitive successors beyond them.
		extend := func(id, start int) {
			if end := start + s.Delay[id] + sumDelay*maxD; end > horizon {
				horizon = end
			}
		}
		for id, start := range opts.FixedStarts {
			if start >= 0 {
				extend(id, start)
			}
		}
		for id, start := range opts.Release {
			if start > 0 {
				extend(id, start)
			}
		}
	}
	var profile []float64
	if a != nil {
		profile = growFloats(&a.profile, horizon)
	} else {
		profile = make([]float64, horizon)
	}
	clear(profile[copy(profile, opts.Base):])

	place := func(id cdfg.NodeID, start int) error {
		end := start + s.Delay[id]
		if start < 0 {
			return fmt.Errorf("sched: pasap: node %q placed at negative cycle %d", g.Node(id).Name, start)
		}
		if end > horizon {
			return fmt.Errorf("sched: pasap: node %q placed at [%d,%d) outside horizon %d: %w",
				g.Node(id).Name, start, end, horizon, ErrHorizon)
		}
		s.Start[id] = start
		for c := start; c < end; c++ {
			profile[c] += s.Power[id]
		}
		return nil
	}

	// Place fixed nodes first so their power is visible to everything else,
	// in ascending node order (deterministic).
	for i, start := range opts.FixedStarts {
		if start < 0 {
			continue
		}
		if err := place(cdfg.NodeID(i), start); err != nil {
			return nil, err
		}
	}

	fits := func(id cdfg.NodeID, start int) bool {
		if opts.PowerMax <= 0 {
			return true
		}
		for c := start; c < start+s.Delay[id]; c++ {
			if c >= horizon || profile[c]+s.Power[id] > opts.PowerMax+1e-9 {
				return false
			}
		}
		return true
	}

	for _, id := range order {
		if _, isFixed := opts.fixedAt(id); isFixed {
			continue
		}
		if opts.PowerMax > 0 && s.Power[id] > opts.PowerMax+1e-9 {
			return nil, fmt.Errorf("sched: pasap: node %q draws %.3g per cycle, constraint %.3g: %w",
				g.Node(id).Name, s.Power[id], opts.PowerMax, ErrPowerInfeasible)
		}
		// Earliest precedence-feasible start, no earlier than the node's
		// release (a boundary-transfer pin from an upstream part).
		t := opts.releaseAt(id)
		for _, p := range g.Preds(id) {
			if e := s.Start[p] + s.Delay[p]; e > t {
				t = e
			}
		}
		// Latest start admitted by fixed successors (they cannot move), the
		// node's due (a boundary-transfer bound from downstream parts), and
		// the horizon.
		latest := horizon - s.Delay[id]
		if due := opts.dueAt(id); due > 0 {
			if lim := due - s.Delay[id]; lim < latest {
				latest = lim
			}
		}
		for _, v := range g.Succs(id) {
			if fs, isFixed := opts.fixedAt(v); isFixed {
				if lim := fs - s.Delay[id]; lim < latest {
					latest = lim
				}
			}
		}
		// Stretch: increase the execution offset until power fits.
		start := t
		for start <= latest && !fits(id, start) {
			start++
		}
		if start > latest {
			return nil, fmt.Errorf("sched: pasap: node %q cannot be placed in [%d,%d] under P< = %.3g: %w",
				g.Node(id).Name, t, latest, opts.PowerMax, ErrHorizon)
		}
		if err := place(id, start); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ASAP computes the classical unconstrained as-soon-as-possible schedule.
func ASAP(g *cdfg.Graph, bind Binding) (*Schedule, error) {
	return PASAP(g, bind, Options{})
}

// criticalFirstOrder returns the critical-first selection order: every
// node sorted by priority descending, ties to the smallest ID, where a
// node's priority is its delay-weighted longest path (inclusive) to a sink
// with each delay counted as at least 1, as cdfg.CriticalPath counts it.
// With every delay >= 1 a node's priority strictly exceeds each
// successor's, so the sorted order is topological, and its first unplaced
// node is always ready and ranks above every other ready node: the order
// is exactly the sequence that picking the best ready node step by step
// produces. A counting sort over the priorities costs O(V+E+P), where P is
// the critical-path length. It returns an error wrapping cdfg.ErrCycle on
// cyclic graphs. With an arena, all scratch (including the returned order,
// valid until the next scheduler run) is recycled.
func criticalFirstOrder(g *cdfg.Graph, bind Binding, opts *Options, a *Arena) ([]cdfg.NodeID, error) {
	topo, err := a.topoFor(g)
	if err != nil {
		return nil, err
	}
	n := g.N()
	var prio []int
	var order []cdfg.NodeID
	if a != nil {
		prio = growInts(&a.prio, n)
		order = growIDs(&a.order, n)
	} else {
		prio = make([]int, n)
		order = make([]cdfg.NodeID, n)
	}
	top := 0
	for i := len(topo) - 1; i >= 0; i-- {
		u := topo[i]
		best := 0
		for _, v := range g.Succs(u) {
			best = max(best, prio[v])
		}
		var d int
		if opts != nil && opts.Delays != nil {
			d = opts.Delays[u]
		} else {
			d = bind(g.Node(u)).Delay
		}
		prio[u] = best + max(d, 1)
		top = max(top, prio[u])
	}
	// next[p] counts the nodes of priority p, then becomes the position of
	// the next one: all nodes of higher priority come before it.
	var next []int
	if a != nil {
		next = growInts(&a.bucket, top+1)
		clear(next)
	} else {
		next = make([]int, top+1)
	}
	for _, p := range prio {
		next[p]++
	}
	pos := 0
	for p := top; p > 0; p-- {
		next[p], pos = pos, pos+next[p]
	}
	for i, p := range prio {
		order[next[p]] = cdfg.NodeID(i)
		next[p]++
	}
	return order, nil
}

// PALAP computes the power-constrained as-late-as-possible schedule under a
// latency constraint of deadline cycles: the time-reversed analogue of
// PASAP. Every operation is placed as late as the deadline, precedence, and
// the power constraint allow. It returns an error wrapping ErrDeadline when
// the graph cannot finish within deadline cycles under the constraint, and
// ErrPowerInfeasible when some single operation exceeds PowerMax.
//
// Options semantics match PASAP; Base, FixedStarts, Release and Due are
// interpreted in the forward time frame ([0, deadline)) and converted
// internally. The horizon of a PALAP schedule is the deadline.
func PALAP(g *cdfg.Graph, bind Binding, deadline int, opts Options) (*Schedule, error) {
	if deadline <= 0 {
		return nil, fmt.Errorf("sched: palap: deadline %d must be positive", deadline)
	}
	if err := opts.check(g); err != nil {
		return nil, err
	}
	a := opts.arenaFor(g)
	r := a.reverseOf(g)
	// Reverse the ambient profile into the reversed time frame.
	ropts := Options{
		PowerMax: opts.PowerMax, Select: opts.Select,
		Delays: opts.Delays, Powers: opts.Powers, Arena: opts.Arena,
	}
	if len(opts.Base) > 0 {
		var rbase []float64
		if a != nil {
			rbase = growFloats(&a.rbase, deadline)
		} else {
			rbase = make([]float64, deadline)
		}
		for c := 0; c < deadline; c++ {
			rbase[c] = opts.baseAt(deadline - 1 - c)
		}
		ropts.Base = rbase
	}
	delays := opts.Delays
	if delays == nil && (opts.FixedStarts != nil || opts.Release != nil || opts.Due != nil) {
		delays = newSchedule(g, bind).Delay
	}
	// Release/due swap roles under time reversal: a forward release R
	// (start >= R) becomes a reversed due deadline-R (reversed completion
	// deadline-start <= deadline-R), and a forward due D (completion <= D)
	// becomes a reversed release deadline-D.
	if opts.Release != nil || opts.Due != nil {
		n := g.N()
		var rrel, rdue []int
		for id := 0; id < n; id++ {
			if due := opts.dueAt(cdfg.NodeID(id)); due > 0 && due < deadline {
				if rrel == nil {
					rrel = make([]int, n)
				}
				rrel[id] = deadline - due
			}
			if rel := opts.releaseAt(cdfg.NodeID(id)); rel > 0 {
				if rel+delays[id] > deadline {
					return nil, fmt.Errorf("sched: palap: node %q released at cycle %d cannot finish by the deadline %d: %w",
						g.Node(cdfg.NodeID(id)).Name, rel, deadline, ErrDeadline)
				}
				if rdue == nil {
					rdue = make([]int, n)
				}
				rdue[id] = deadline - rel
			}
		}
		ropts.Release, ropts.Due = rrel, rdue
	}
	if opts.FixedStarts != nil {
		var rfixed []int
		if a != nil {
			rfixed = growInts(&a.rfixed, len(opts.FixedStarts))
		} else {
			rfixed = make([]int, len(opts.FixedStarts))
		}
		for id, start := range opts.FixedStarts {
			if start < 0 {
				rfixed[id] = -1
			} else {
				rfixed[id] = deadline - start - delays[id]
			}
		}
		ropts.FixedStarts = rfixed
	}
	rs, err := pasapWithin(r, bind, ropts, deadline)
	if err != nil {
		// A horizon overflow in the reversed frame means the deadline
		// cannot be met; single-operation power infeasibility passes
		// through unchanged.
		if errors.Is(err, ErrHorizon) {
			return nil, fmt.Errorf("sched: palap: %w: %w", ErrDeadline, err)
		}
		return nil, fmt.Errorf("sched: palap: %w", err)
	}
	s := newScheduleOpts(g, bind, &opts)
	for i := range s.Start {
		s.Start[i] = deadline - rs.Start[i] - rs.Delay[i]
		if s.Start[i] < 0 {
			return nil, fmt.Errorf("sched: palap: node %q needs to start at cycle %d: %w",
				g.Node(cdfg.NodeID(i)).Name, s.Start[i], ErrDeadline)
		}
	}
	return s, nil
}

// ALAP computes the classical unconstrained as-late-as-possible schedule
// under the given deadline. It returns an error wrapping ErrDeadline when
// the critical path exceeds the deadline.
func ALAP(g *cdfg.Graph, bind Binding, deadline int) (*Schedule, error) {
	return PALAP(g, bind, deadline, Options{})
}

// Window is a node's feasible start-time interval under the power and
// latency constraints: Early from PASAP, Late from PALAP.
type Window struct {
	Early, Late int
}

// Width returns the number of feasible start times (Late - Early + 1);
// negative widths indicate an infeasible (stranded) node.
func (w Window) Width() int { return w.Late - w.Early + 1 }

// Windows computes per-node power-feasible mobility windows: Early[i] from
// the PASAP schedule and Late[i] from the PALAP schedule under the deadline.
// An error is returned when either schedule is infeasible. Note that
// because pasap/palap are heuristics the windows are not exact — they bound
// the design space explored by the synthesizer, as in the paper.
func Windows(g *cdfg.Graph, bind Binding, deadline int, opts Options) ([]Window, error) {
	early, err := PASAP(g, bind, opts)
	if err != nil {
		return nil, err
	}
	if deadline > 0 && early.Length() > deadline {
		return nil, fmt.Errorf("sched: windows: pasap length %d exceeds deadline %d: %w", early.Length(), deadline, ErrDeadline)
	}
	late, err := PALAP(g, bind, deadline, opts)
	if err != nil {
		return nil, err
	}
	ws := make([]Window, g.N())
	for i := range ws {
		ws[i] = Window{Early: early.Start[i], Late: late.Start[i]}
	}
	return ws, nil
}
