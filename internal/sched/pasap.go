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
	// Ref, when non-nil, is a reference pair (see Reference) that this
	// run overrides at node RefNode: the caller guarantees that the run's
	// options are the ones the reference pair was derived under, except
	// for RefNode's Delays and Powers entries, and the run then replays
	// what it shares with the pair instead of recomputing it, with the
	// same result. Nothing checks the tables (that would cost a pass over
	// them per run); a run that fixes RefNode or has no arena ignores Ref.
	Ref     *Reference
	RefNode cdfg.NodeID
	// Stop, when positive, ends a pasap run with ErrStopped as soon as a
	// placed node ends past cycle Stop, since the run's length then exceeds
	// it. A run that is not stopped is the full run: a bounded run fails
	// exactly when the full run fails or its length exceeds Stop, and gives
	// the full run's starts otherwise. Callers that only ask whether a
	// schedule meets a length (the synthesizer's module descent) skip the
	// rest of a run that cannot. PALAP ignores it.
	Stop int
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

// checkStart is check for the runs that write into a caller's start
// buffer, which must have one entry per node too.
func (o *Options) checkStart(g *cdfg.Graph, start []int) error {
	if err := o.check(g); err != nil {
		return err
	}
	if len(start) != g.N() {
		return fmt.Errorf("sched: start buffer has %d entries for %d nodes", len(start), g.N())
	}
	return nil
}

// tables returns a run's per-node delay and power tables: Delays and
// Powers when both are set, else the binding's.
func (o *Options) tables(g *cdfg.Graph, bind Binding) ([]int, []float64) {
	if o.Delays != nil && o.Powers != nil {
		return o.Delays, o.Powers
	}
	s := newSchedule(g, bind)
	return s.Delay, s.Power
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
// power exceeds PowerMax, ErrStopped when Options.Stop ends the run, and an
// error if the graph is cyclic, a fixed placement is negative, or a
// per-node option table does not have one entry per node.
func PASAP(g *cdfg.Graph, bind Binding, opts Options) (*Schedule, error) {
	if err := opts.check(g); err != nil {
		return nil, err
	}
	s := newScheduleOpts(g, bind, &opts)
	if err := pasapWithin(g, bind, &opts, 0, s.Delay, s.Power, s.Start, replay{}); err != nil {
		return nil, err
	}
	return s, nil
}

// PASAPStarts is PASAP writing the start times into start, which must
// have one entry per node, instead of into a fresh Schedule; after an
// error its contents are undefined. With an arena and both the Delays and
// Powers tables set, a steady-state run allocates nothing but the error
// of a failed run. With Options.Ref set, the run replays what it shares
// with the reference pair (see Reference).
func PASAPStarts(g *cdfg.Graph, bind Binding, opts Options, start []int) error {
	if err := opts.checkStart(g, start); err != nil {
		return err
	}
	delay, power := opts.tables(g, bind)
	return pasapWithin(g, bind, &opts, 0, delay, power, start, opts.replayOf(g, delay, false, 0))
}

// pasapWithin is the shared core of PASAP and PALAP: it places every node
// of g under opts, with the given per-node delay and power tables, and
// writes the starts into start. horizon caps the last cycle (exclusive)
// the scheduler may use; PALAP passes its deadline. Zero means automatic:
// len(Base) + sumDelay*maxDelay + 1, where sumDelay is the total delay of
// all nodes and maxDelay the largest one (at least 1). The serial bound
// sumDelay is not enough: greedy stretching in a fragmented power profile
// can overshoot it, since one busy cycle can block up to maxDelay
// candidate windows of a long operation. The automatic horizon also
// reaches sumDelay*maxDelay past the end of every fixed or released node,
// so their transitive successors fit after them. With a replay (rp.side
// set), the leading nodes of the selection order that the run shares with
// the reference are placed at their reference starts without a search.
func pasapWithin(g *cdfg.Graph, bind Binding, opts *Options, horizon int, delay []int, power []float64, start []int, rp replay) error {
	a := opts.arenaFor(g)
	var order []cdfg.NodeID
	from := 0 // order[:from] may be copied from the reference
	var err error
	switch {
	case rp.side != nil && rp.side.g == g && a != nil:
		order, from = rp.order(g, a, opts.Select, delay)
	case opts.Select == SmallestID:
		order, err = a.topoFor(g)
	default:
		order, err = criticalFirstOrder(g, bind, opts, a)
	}
	if err != nil {
		return err
	}
	if horizon <= 0 {
		sumDelay, maxD := 0, 1
		for _, d := range delay {
			sumDelay += d
			if d > maxD {
				maxD = d
			}
		}
		horizon = len(opts.Base) + sumDelay*maxD + 1
		// Fixed and released nodes may sit arbitrarily late; leave room for
		// their transitive successors beyond them.
		extend := func(id, start int) {
			if end := start + delay[id] + sumDelay*maxD; end > horizon {
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
	profile := a.profileFor(horizon, opts.Base)

	place := func(id cdfg.NodeID, s int) error {
		end := s + delay[id]
		if s < 0 {
			return fmt.Errorf("sched: pasap: node %q placed at negative cycle %d", g.Node(id).Name, s)
		}
		if end > horizon {
			return &horizonError{node: g.Node(id).Name, start: s, end: end, horizon: horizon}
		}
		if opts.Stop > 0 && end > opts.Stop {
			return ErrStopped
		}
		start[id] = s
		for c := s; c < end; c++ {
			profile[c] += power[id]
		}
		if a != nil && s <= a.dirty+spanGap {
			a.dirty = max(a.dirty, end)
		} else {
			a.wroteFar(s, end)
		}
		return nil
	}

	// Place fixed nodes first so their power is visible to everything else,
	// in ascending node order (deterministic).
	for i, s := range opts.FixedStarts {
		if s < 0 {
			continue
		}
		if err := place(cdfg.NodeID(i), s); err != nil {
			return err
		}
	}

	// blocked returns the first cycle of an execution of id from s that
	// would break the cap or the horizon, or -1 when the execution fits.
	// Every start after s up to that cycle covers it too, so the search
	// resumes just past it.
	blocked := func(id cdfg.NodeID, s int) int {
		if opts.PowerMax <= 0 {
			return -1
		}
		for c := s; c < s+delay[id]; c++ {
			if c >= horizon || profile[c]+power[id] > opts.PowerMax+1e-9 {
				return c
			}
		}
		return -1
	}

	for i, id := range order {
		if _, isFixed := opts.fixedAt(id); isFixed {
			continue
		}
		if i < from {
			// A shared node: it sees what it saw in the reference run, so
			// it lands on its reference start, unless this run's horizon
			// ends before that start does (the run then goes on in full).
			if s := rp.start(id, delay); s >= 0 && s+delay[id] <= horizon {
				// s >= 0 and it ends by the horizon: only a stop can fail it.
				if err := place(id, s); err != nil {
					return err
				}
				continue
			}
			from = i
		}
		if opts.PowerMax > 0 && power[id] > opts.PowerMax+1e-9 {
			return &powerError{node: g.Node(id).Name, power: power[id], powerMax: opts.PowerMax}
		}
		// Earliest precedence-feasible start, no earlier than the node's
		// release (a boundary-transfer pin from an upstream part).
		t := opts.releaseAt(id)
		for _, p := range g.Preds(id) {
			if e := start[p] + delay[p]; e > t {
				t = e
			}
		}
		// Latest start admitted by fixed successors (they cannot move), the
		// node's due (a boundary-transfer bound from downstream parts), and
		// the horizon.
		latest := horizon - delay[id]
		if due := opts.dueAt(id); due > 0 {
			if lim := due - delay[id]; lim < latest {
				latest = lim
			}
		}
		for _, v := range g.Succs(id) {
			if fs, isFixed := opts.fixedAt(v); isFixed {
				if lim := fs - delay[id]; lim < latest {
					latest = lim
				}
			}
		}
		// Stretch: increase the execution offset until power fits.
		s := t
		for s <= latest {
			c := blocked(id, s)
			if c < 0 {
				break
			}
			s = c + 1
		}
		if s > latest {
			return &placeError{node: g.Node(id).Name, t: t, latest: latest, powerMax: opts.PowerMax}
		}
		if err := place(id, s); err != nil {
			return err
		}
	}
	return nil
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
	order, _, err := criticalFirstOrderPrio(g, bind, opts, a)
	return order, err
}

// criticalFirstOrderPrio is criticalFirstOrder also returning the
// priorities it sorted by (in the arena's buffer when there is one).
func criticalFirstOrderPrio(g *cdfg.Graph, bind Binding, opts *Options, a *Arena) ([]cdfg.NodeID, []int, error) {
	topo, err := a.topoFor(g)
	if err != nil {
		return nil, nil, err
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
	return order, prio, nil
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
	s := newScheduleOpts(g, bind, &opts)
	if err := palapWithin(g, bind, deadline, &opts, s.Delay, s.Power, s.Start, replay{}); err != nil {
		return nil, err
	}
	return s, nil
}

// PALAPStarts is PALAP writing the start times into start, as PASAPStarts
// does for PASAP; the reversed run's scratch lives in the arena.
func PALAPStarts(g *cdfg.Graph, bind Binding, deadline int, opts Options, start []int) error {
	if deadline <= 0 {
		return fmt.Errorf("sched: palap: deadline %d must be positive", deadline)
	}
	if err := opts.checkStart(g, start); err != nil {
		return err
	}
	delay, power := opts.tables(g, bind)
	return palapWithin(g, bind, deadline, &opts, delay, power, start, opts.replayOf(g, delay, true, deadline))
}

// palapWithin is the core of PALAP: one pasap run on the reversed graph,
// its options and its replay converted into the reversed time frame.
func palapWithin(g *cdfg.Graph, bind Binding, deadline int, opts *Options, delay []int, power []float64, start []int, rp replay) error {
	a := opts.arenaFor(g)
	r := a.reverseOf(g)
	n := g.N()
	// Reverse the ambient profile into the reversed time frame.
	ropts := Options{
		PowerMax: opts.PowerMax, Select: opts.Select,
		Delays: delay, Powers: power, Arena: opts.Arena,
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
	// Release/due swap roles under time reversal: a forward release R
	// (start >= R) becomes a reversed due deadline-R (reversed completion
	// deadline-start <= deadline-R), and a forward due D (completion <= D)
	// becomes a reversed release deadline-D.
	if opts.Release != nil || opts.Due != nil {
		rrelBuf, rdueBuf := new([]int), new([]int)
		if a != nil {
			rrelBuf, rdueBuf = &a.rrel, &a.rdue
		}
		var rrel, rdue []int
		for id := 0; id < n; id++ {
			if due := opts.dueAt(cdfg.NodeID(id)); due > 0 && due < deadline {
				if rrel == nil {
					rrel = growInts(rrelBuf, n)
					clear(rrel)
				}
				rrel[id] = deadline - due
			}
			if rel := opts.releaseAt(cdfg.NodeID(id)); rel > 0 {
				if rel+delay[id] > deadline {
					return fmt.Errorf("sched: palap: node %q released at cycle %d cannot finish by the deadline %d: %w",
						g.Node(cdfg.NodeID(id)).Name, rel, deadline, ErrDeadline)
				}
				if rdue == nil {
					rdue = growInts(rdueBuf, n)
					clear(rdue)
				}
				rdue[id] = deadline - rel
			}
		}
		ropts.Release, ropts.Due = rrel, rdue
	}
	if opts.FixedStarts != nil {
		var rfixed []int
		if a != nil {
			rfixed = growInts(&a.rfixed, n)
		} else {
			rfixed = make([]int, n)
		}
		for id, s := range opts.FixedStarts {
			if s < 0 {
				rfixed[id] = -1
				continue
			}
			// A negative reversed start would read as free.
			if rfixed[id] = deadline - s - delay[id]; rfixed[id] < 0 {
				return fmt.Errorf("sched: palap: node %q fixed at cycle %d cannot finish by the deadline %d: %w",
					g.Node(cdfg.NodeID(id)).Name, s, deadline, ErrDeadline)
			}
		}
		ropts.FixedStarts = rfixed
	}
	var rstart []int
	if a != nil {
		rstart = growInts(&a.rstart, n)
	} else {
		rstart = make([]int, n)
	}
	if err := pasapWithin(r, bind, &ropts, deadline, delay, power, rstart, rp); err != nil {
		// A horizon overflow in the reversed frame means the deadline
		// cannot be met; single-operation power infeasibility passes
		// through unchanged.
		return &palapError{err: err, deadline: errors.Is(err, ErrHorizon)}
	}
	for i := range start {
		start[i] = deadline - rstart[i] - delay[i]
		if start[i] < 0 {
			return fmt.Errorf("sched: palap: node %q needs to start at cycle %d: %w",
				g.Node(cdfg.NodeID(i)).Name, start[i], ErrDeadline)
		}
	}
	return nil
}

// The failures of a scheduler run are typed values formatted only when
// Error is called: the synthesizer runs thousands of override pairs that
// fail and drops their errors unread. Each prints exactly what the
// fmt.Errorf it replaces printed, and wraps the same sentinels.

// placeError: pasap found no start for a node in [t, latest].
type placeError struct {
	node      string
	t, latest int
	powerMax  float64
}

func (e *placeError) Error() string {
	return fmt.Sprintf("sched: pasap: node %q cannot be placed in [%d,%d] under P< = %.3g: %v",
		e.node, e.t, e.latest, e.powerMax, ErrHorizon)
}

func (e *placeError) Unwrap() error { return ErrHorizon }

// horizonError: a placement ends past the run's horizon.
type horizonError struct {
	node                string
	start, end, horizon int
}

func (e *horizonError) Error() string {
	return fmt.Sprintf("sched: pasap: node %q placed at [%d,%d) outside horizon %d: %v",
		e.node, e.start, e.end, e.horizon, ErrHorizon)
}

func (e *horizonError) Unwrap() error { return ErrHorizon }

// powerError: a single node draws more than the cap.
type powerError struct {
	node            string
	power, powerMax float64
}

func (e *powerError) Error() string {
	return fmt.Sprintf("sched: pasap: node %q draws %.3g per cycle, constraint %.3g: %v",
		e.node, e.power, e.powerMax, ErrPowerInfeasible)
}

func (e *powerError) Unwrap() error { return ErrPowerInfeasible }

// palapError: palap's reversed pasap run failed; with deadline set, it ran
// out of horizon, which means the deadline cannot be met.
type palapError struct {
	err      error
	deadline bool
}

func (e *palapError) Error() string {
	if e.deadline {
		return "sched: palap: " + ErrDeadline.Error() + ": " + e.err.Error()
	}
	return "sched: palap: " + e.err.Error()
}

func (e *palapError) Unwrap() []error {
	if e.deadline {
		return []error{ErrDeadline, e.err}
	}
	return []error{e.err}
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
