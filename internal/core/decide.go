package core

import (
	"sort"

	"pchls/internal/cdfg"
	"pchls/internal/sched"
)

// prepareWindows is the once-per-iteration step of the window derivation;
// the decision loop then reads each candidate's window where it is
// derived (window). Locked states need nothing more. The SDC regime runs
// its one longest-path pass. The exhaustive regime derives the base pair
// (baseWindows) and the iteration's scheduler options, which every
// override run shares; when the base pair fails, the override entries
// that rest on it are dropped and no new entry is cached this iteration.
func (st *state) prepareWindows() {
	if st.cfg.coldWindows {
		st.auditCommitted()
		st.eng.invalidateWindows()
	}
	if st.locked {
		return
	}
	if st.sdc {
		st.stats.SDCDerivations++
		st.deriveBounds(st.cons.Deadline)
		return
	}
	eng := st.eng
	eng.bounded = false
	st.opts = st.schedOpts()
	baseOK := st.baseWindows(st.opts)
	if !baseOK && eng.warm {
		// The override entries that survived the last commitment rest on
		// the base pair, which no longer exists.
		eng.invalidateWindows()
		st.stats.FullInvalidations++
	}
	eng.warm = baseOK
}

// window returns the feasible window of candidate j of uncommitted node v
// (module st.cand[v][j]) in the iteration prepareWindows set up, and
// whether it has one: the locked start as a point window (the assumed
// module only); the SDC bounds; the base window under the assumed module;
// or else the override pair's entry, served from the engine's cache when
// an entry survived the commitments since it was derived, and refuted
// without a run when the precedence bound leaves v no start under the
// module (pairRefuted). Entries are cached only while the base pair
// stands (eng.warm), since their validity rests on it.
func (st *state) window(v cdfg.NodeID, j int) (sched.Window, bool) {
	mi := st.cand[v][j]
	if st.locked {
		return sched.Window{Early: st.start[v], Late: st.start[v]}, mi == st.moduleOf[v]
	}
	if st.sdc {
		return st.sdcWindow(v, mi)
	}
	eng := st.eng
	if mi == st.moduleOf[v] && eng.warm {
		w := eng.baseWin[v]
		return w, w.Width() >= 1
	}
	ent := &eng.over[eng.slotOf[v]+j]
	if ent.cached {
		st.stats.WindowCacheHits++
		return ent.w, ent.ok
	}
	st.stats.WindowCacheMisses++
	var e winEntry
	if !st.pairRefuted(v, mi) {
		e = st.computeEntry(v, j, st.opts)
	}
	if eng.warm {
		e.cached = true
		*ent = e
	}
	return e.w, e.ok
}

// pairRefuted reports whether the precedence bound refutes the override
// pair of candidate (v, mi) before it runs (refutes). The bound is derived
// once per iteration, at its first cache miss, under the iteration's own
// committed starts, release and due. A refuted pair fails, or yields a
// window of width < 1, so it caches like a failed pair: not ok, with no
// start arrays, dropped at the next commit.
func (st *state) pairRefuted(v cdfg.NodeID, mi int) bool {
	if !st.eng.bounded {
		st.deriveBounds(st.cons.Deadline)
		st.eng.bounded = true
	}
	if !st.refutes(v, st.lib.Module(mi).Delay) {
		return false
	}
	if refuted != nil {
		refuted(st, refutedPair, v, mi, st.cons.Deadline)
	}
	return true
}

// deriveBounds derives the SDC bounds of the current state under deadline
// into st.sdcB, in one O(V+E) pass: the committed starts, the module
// assumptions, and the release and due constraints.
func (st *state) deriveBounds(deadline int) {
	st.fillFixedStarts()
	sched.DeriveSDCBounds(st.g, st.topoOrder(), deadline, st.delays, st.fixedStarts,
		st.cfg.release, st.cfg.due, &st.sdcB)
}

// refutes reports whether the precedence bound in st.sdcB (deriveBounds)
// leaves the uncommitted node v no start under a module of delay d, which
// proves that no pasap run of the state with v at that delay ends by the
// bound's deadline. A pasap run places a free node no earlier than its
// release and its predecessors' ends, so no start is earlier than Early;
// in a run that ends by the deadline, no node ends past its due, the
// start of a fixed successor or the start of a free one, so no end is
// later than LateEnd. Neither bound of v depends on v's own delay, and
// longer delays of other nodes only tighten both, so a bound derived
// before other nodes' delays grew still refutes soundly. The coldWindows
// oracle refutes nothing: it runs every pair and probe in full, so the
// golden and cold-window suites compare the bound with full runs.
func (st *state) refutes(v cdfg.NodeID, d int) bool {
	return !st.cfg.coldWindows && st.fixedStarts[v] < 0 && st.sdcB.Early[v]+d > st.sdcB.LateEnd[v]
}

// refutation names what the precedence bound refuted: an override pair,
// an area-descent probe or a refine probe.
type refutation int

const (
	refutedPair refutation = iota
	refutedDescent
	refutedRefine
)

// refuted, when set, is called with the state, the kind, the node, the
// candidate module and the length bound of every pair or probe the
// precedence bound refutes, in place of running it; a probe's call sees
// the state with v switched to mi. Test-only: TestRefutedPairsFailInFull
// runs each one in full.
var refuted func(st *state, kind refutation, v cdfg.NodeID, mi, bound int)

// baseWindows derives the base windows (every node under its assumed
// module) into eng.baseWin under opts, the iteration's scheduler options,
// and reports whether the base pair succeeded. It reuses them outright
// when the last commitment provably left the pair unchanged (baseValid);
// otherwise it runs the full pair, reusing the exact post-commit probe,
// when present, as the Early schedule. A derived pair becomes the
// override runs' replay reference.
func (st *state) baseWindows(opts sched.Options) bool {
	eng := st.eng
	if eng.warm && eng.baseValid {
		return true
	}
	eng.refOK = false
	early, err := eng.probe, error(nil)
	if early == nil {
		st.stats.SchedulerRuns++
		early, err = sched.PASAP(st.g, st.baseBind, opts)
	}
	if err != nil || early.Length() > st.cons.Deadline {
		return false
	}
	st.stats.SchedulerRuns++
	if sched.PALAPStarts(st.g, st.baseBind, st.cons.Deadline, opts, eng.lateBase) != nil {
		return false
	}
	for i := range eng.baseWin {
		eng.baseWin[i] = sched.Window{Early: early.Start[i], Late: eng.lateBase[i]}
	}
	eng.probe = early
	// Snapshot the module assumptions the cached runs are made under;
	// entry validity across a later commitment requires the committed
	// module to match this snapshot.
	eng.assumed = append(eng.assumed[:0], st.moduleOf...)
	eng.refOK = !st.cfg.coldWindows && st.kit.ref.Reset(st.g, st.baseBind, opts, eng.baseWin) == nil
	return true
}

// sdcWindow derives candidate (v, mi)'s window from the SDC
// difference-constraint bounds of the iteration: Early[v] never depends
// on v's own delay and LateEnd[v] doesn't either while v is uncommitted,
// so a module override is just a different subtraction — an O(1) lookup
// after one O(V+E) longest-path pass per iteration. This replaces the
// O(n·m) override pasap/palap pairs of the exhaustive path, which is what
// makes thousand-node synthesis tractable.
//
// The bounds ignore the power cap, so these windows are supersets of the
// power-feasible exhaustive ones. Soundness is unaffected: every placement
// is still checked against the committed power profile (freeSlot), every
// commit is re-probed by the full power-aware pasap, repair handles
// stranded operations, and the final schedule passes Validate — the
// relaxation only widens which decisions get considered. Modules whose
// own power exceeds the cap are rejected here exactly as windowSchedsFor
// rejects them. Parts of a decomposed synthesis use this rule too: the
// power of earlier parts is in their committed profile (baseProfile).
func (st *state) sdcWindow(v cdfg.NodeID, mi int) (sched.Window, bool) {
	m := st.lib.Module(mi)
	if st.cons.PowerMax > 0 && m.Power > st.cons.PowerMax+1e-9 {
		return sched.Window{}, false
	}
	w := sched.Window{Early: st.sdcB.Early[v], Late: st.sdcB.LateEnd[v] - m.Delay}
	return w, w.Width() >= 1
}

// muxEstimate approximates the interconnect cost of binding v onto
// instance f: one new multiplexer input for every operand port of v whose
// producer differs from the producers already feeding that port of f, and
// one for the result port when f already has operations (its output fans
// to a new destination register). This mirrors bind.Build's mux model
// using producer nodes as register proxies (registers do not exist yet at
// decision time). f's producer summary answers each port in O(1): a port
// no operation of f has adds nothing, one fed by v's producer alone adds
// nothing, and any other adds an input.
func (st *state) muxEstimate(v cdfg.NodeID, f int) float64 {
	fu := &st.fus[f]
	if len(fu.ops) == 0 {
		return 0
	}
	// Result-side fan-out: sharing adds one register-write source.
	inputs := 1
	for port, p := range st.g.Preds(v) {
		if q := fu.producers[port]; q != portUnseen && q != p {
			inputs++
		}
	}
	est := float64(inputs) * st.cm.MuxInputArea
	if mux != nil {
		mux(st, v, f, est)
	}
	return est
}

// mux, when set, is called with the state, the node, the instance and the
// estimate of every muxEstimate. Test-only: the producer-summary
// differential compares each estimate with a scan of the instance's
// operations.
var mux func(st *state, v cdfg.NodeID, f int, est float64)

// countPotential counts, per module, the uncommitted operations it could
// implement into st.potential, for the amortized-area estimate, and fills
// st.amortized, the estimate per module. mi implements node i's op
// exactly when mi is among the op's candidate modules. It is the full
// recount: initTables runs it once, markCommitted keeps both tables
// current from then on, and the cold-window audit compares them with it.
func (st *state) countPotential() {
	clear(st.potential)
	for i, c := range st.committed {
		if c {
			continue
		}
		for _, mi := range st.cand[i] {
			st.potential[mi]++
		}
	}
	for mi, p := range st.potential {
		st.amortized[mi] = st.amortizedAreaWith(mi, p)
	}
}

// markCommitted sets v's committed flag and moves the potential count and
// amortized estimate of each of v's candidate modules with it: a commit
// changes the tables in O(candidates), so bestDecision reads them without
// a recount.
func (st *state) markCommitted(v cdfg.NodeID, c bool) {
	st.committed[v] = c
	delta := 1
	if c {
		delta = -1
	}
	for _, mi := range st.cand[v] {
		st.potential[mi] += delta
		st.amortized[mi] = st.amortizedAreaWith(mi, st.potential[mi])
	}
}

// bucketInstances lists the allocated instances of every module, in
// ascending index order, into st.instancesOf, so a sharing candidate
// visits only its own module's instances, in the order a scan of all of
// them would.
func (st *state) bucketInstances() {
	for mi := range st.instancesOf {
		st.instancesOf[mi] = st.instancesOf[mi][:0]
	}
	for f, fu := range st.fus {
		st.instancesOf[fu.module] = append(st.instancesOf[fu.module], f)
	}
}

// amortizedAreaWith estimates the effective cost of allocating a new
// instance of module mi: its area divided by the number of operations it
// could plausibly end up serving — potential, the uncommitted operations
// of matching type (countPotential), capped by the number of executions
// that fit in the deadline.
func (st *state) amortizedAreaWith(mi, potential int) float64 {
	m := st.lib.Module(mi)
	slots := st.cons.Deadline / m.Delay
	if slots < 1 {
		slots = 1
	}
	share := potential
	if slots < share {
		share = slots
	}
	if share < 1 {
		share = 1
	}
	return m.Area / float64(share)
}

// freeSlot is the decision loop's placement probe: the start fit finds
// for v in window w under a candidate module of delay d and the given
// power, walking w from the palap end under a PlaceLate perturbation
// (which shifts sharing opportunities toward later cycles). Every call
// counts one profile probe.
func (st *state) freeSlot(v cdfg.NodeID, busy []cdfg.NodeID, w sched.Window, d int, power float64) (int, bool) {
	st.stats.ProfileProbes++
	return st.fit(v, busy, w.Early, w.Late, d, power, st.cfg.Perturb.PlaceLate)
}

// fit is the paper's placement rule, the one earliest-fit search of the
// engine: the first start t in [lo, hi] (the last one when late) at which
// an execution of d cycles ends by the deadline, overlaps no busy
// operation other than x — busy intervals are read from start and delays
// — and, under a cap, keeps every covered cycle c within it:
// profile[c] + p <= P<. Blocked starts are skipped in jumps
// (past a colliding operation, past an over-cap cycle) rather than one
// cycle at a time; every skipped start is blocked by the same cause.
//
// busy must be a timeline: disjoint executions in start order (an
// instance's line, or a re-timing's ordered insertion list). Ends then
// ascend with the starts, so a binary search finds the first operation
// that can collide with t and the walk only ever advances past it.
func (st *state) fit(x cdfg.NodeID, busy []cdfg.NodeID, lo, hi, d int, p float64, late bool) (int, bool) {
	hi = min(hi, st.cons.Deadline-d)
	end := func(k int) int { return st.start[busy[k]] + st.delays[busy[k]] }
	t, k := lo, 0
	if late {
		// k: the last operation starting before t+d.
		t = hi
		k = sort.Search(len(busy), func(k int) bool { return st.start[busy[k]] >= t+d }) - 1
	} else {
		// k: the first operation ending after t.
		k = sort.Search(len(busy), func(k int) bool { return end(k) > t })
	}
	for lo <= t && t <= hi {
		if late {
			for k >= 0 && (busy[k] == x || st.start[busy[k]] >= t+d) {
				k--
			}
			if k >= 0 && end(k) > t {
				t = st.start[busy[k]] - d
				k--
				continue
			}
		} else {
			for k < len(busy) && (busy[k] == x || end(k) <= t) {
				k++
			}
			if k < len(busy) && st.start[busy[k]] < t+d {
				t = end(k)
				k++
				continue
			}
		}
		if c := st.overCap(t, d, p); c >= 0 {
			t = c + 1
			if late {
				t = c - d
			}
			continue
		}
		return t, true
	}
	return 0, false
}

// overCap returns the first cycle of an execution of d cycles from t at
// which power p would break the cap on top of the committed profile, or
// -1 when it fits (always, uncapped).
func (st *state) overCap(t, d int, p float64) int {
	if st.cons.PowerMax > 0 {
		for c := t; c < t+d; c++ {
			if st.profile[c]+p > st.cons.PowerMax+1e-9 {
				return c
			}
		}
	}
	return -1
}

// bestDecision evaluates the current compatibility structure and returns
// the cheapest admissible decision: bind an uncommitted operation onto an
// existing instance, or allocate a new instance for it. Whether v can
// share instance f — an edge of the paper's V1 graph — is decided on
// demand by freeSlot over v's window and f's operations. Decisions rank
// by the node's weight (heavier first), then cost; ties break toward the
// most schedule-constrained operation (smallest window), then the
// smallest node ID (or tie rank), then the smallest module area — all
// deterministic. The weight is fixed for the life of the state, so the
// scan stops at the first node lighter than a decision it has, and the
// windows of lighter nodes are never derived; within the class, the
// candidates that cannot beat the decision's cost are not derived either
// (scanDecisions).
func (st *state) bestDecision() (Decision, bool) {
	st.prepareWindows()
	st.bucketInstances()
	best, found := st.scanDecisions(true)
	if decided != nil {
		decided(st, best, found)
	}
	return best, found
}

// decided, when set, is called with the state and the result of every
// bestDecision, before anything is committed. Test-only: the pruning
// differential compares each result with scanDecisions(false).
var decided func(st *state, d Decision, ok bool)

// scanDecisions ranks the decisions of the iteration bestDecision set up.
// Without prune it visits every uncommitted node and every candidate.
// With prune it ranks by weight, then by cost, before deriving:
//
//   - It stops at the first node (in st.order) lighter than the best
//     decision found so far.
//   - Once it holds a decision of v's weight class, a decision of v whose
//     cost exceeds the best cost cannot win — consider drops it — and the
//     best cost only falls. A new instance costs its module's full area,
//     so when no candidate module of v is that cheap (newCanWin) none of
//     v's new-instance probes run. A sharing decision costs its mux
//     estimate, which needs no window, so then a candidate whose window
//     would be an uncached override derivation is skipped without one
//     when every instance of its module estimates above the best cost.
//     An equal cost still falls to the tie-breaks, so the bound is strict.
//     Cached, base and SDC windows cost little and are not bounded.
//
// Both return the same decision: the first key is the weight, visit order
// matters only between different nodes, whose ties consider breaks
// explicitly, a skipped decision is one consider would drop, and a class
// with no admissible decision falls through to the next one, so !found
// still means no node has a decision.
func (st *state) scanDecisions(prune bool) (Decision, bool) {
	best := Decision{FU: -1}
	bestWidth, bestWeight := 0, 0.0
	found := false

	// weight ranks operations by how expensive their resource class is
	// (the cheapest module that could implement them): multiplications
	// before ALU operations before transfers. Binding the expensive
	// resources first keeps their sharing opportunities intact; cheap
	// transfers adapt around them.
	consider := func(d Decision, width int) {
		w := st.weight[d.Node]
		if !found {
			best, bestWidth, bestWeight, found = d, width, w, true
			return
		}
		if w != bestWeight {
			if w > bestWeight {
				best, bestWidth, bestWeight = d, width, w
			}
			return
		}
		if d.Cost != best.Cost {
			if d.Cost < best.Cost {
				best, bestWidth, bestWeight = d, width, w
			}
			return
		}
		if width != bestWidth {
			if width < bestWidth {
				best, bestWidth, bestWeight = d, width, w
			}
			return
		}
		if d.Node != best.Node {
			// Candidate-tie reshuffling: a seeded permutation rank replaces
			// the node-ID order among otherwise equal decisions.
			if st.tieRank != nil {
				if st.tieRank[d.Node] < st.tieRank[best.Node] {
					best, bestWidth, bestWeight = d, width, w
				}
				return
			}
			if d.Node < best.Node {
				best, bestWidth, bestWeight = d, width, w
			}
			return
		}
		if st.lib.Module(st.moduleIndexOf(d)).Area < st.lib.Module(st.moduleIndexOf(best)).Area {
			best, bestWidth, bestWeight = d, width, w
		}
	}

	for _, v := range st.order {
		if st.committed[v] {
			continue
		}
		if prune && found && st.weight[v] < bestWeight {
			break
		}
		// With prune, a decision found so far is of v's weight class.
		newCanWin := !prune || !found || st.newCanWin(v, best.Cost)
		// Best new-instance module for v, chosen by amortized area so that
		// a slightly larger multi-function unit (the ALU) beats several
		// single-function units — the effect the clique formulation
		// captures globally. Ranked against other decisions at FULL area,
		// so sharing an existing instance always wins when feasible.
		newMi, newStart, newWidth := -1, 0, 0
		for j, mi := range st.cand[v] {
			if !newCanWin && st.derives(v, j) && st.sharesLose(v, mi, best.Cost) {
				st.skips.windows++
				continue
			}
			w, ok := st.window(v, j)
			if !ok {
				continue
			}
			m := st.lib.Module(mi)
			// Share an existing instance of the same module.
			for _, f := range st.instancesOf[mi] {
				if t, ok := st.freeSlot(v, st.fus[f].line, w, m.Delay, m.Power); ok {
					consider(Decision{
						Node: v, Module: m.Name, FU: f, NewFU: false,
						Start: t, Cost: st.muxEstimate(v, f),
					}, w.Width())
				}
			}
			if !newCanWin {
				st.skips.probes++
				continue
			}
			if t, ok := st.freeSlot(v, nil, w, m.Delay, m.Power); ok {
				if newMi < 0 || st.amortized[mi] < st.amortized[newMi] {
					newMi, newStart, newWidth = mi, t, w.Width()
				}
			}
		}
		if newMi >= 0 {
			m := st.lib.Module(newMi)
			consider(Decision{
				Node: v, Module: m.Name, FU: len(st.fus), NewFU: true,
				Start: newStart, Cost: m.Area,
			}, newWidth)
		}
	}
	return best, found
}

// newCanWin reports whether a new instance for v can cost at most bound:
// whether some candidate module of v has an area within it.
func (st *state) newCanWin(v cdfg.NodeID, bound float64) bool {
	for _, mi := range st.cand[v] {
		if st.lib.Module(mi).Area <= bound {
			return true
		}
	}
	return false
}

// derives reports whether window(v, j) would derive an override pair:
// on the exhaustive path, unlocked, for a candidate the base windows and
// the cache do not serve. It follows window's branches, which must agree.
func (st *state) derives(v cdfg.NodeID, j int) bool {
	if st.locked || st.sdc {
		return false
	}
	eng := st.eng
	if st.cand[v][j] == st.moduleOf[v] && eng.warm {
		return false
	}
	return !eng.over[eng.slotOf[v]+j].cached
}

// sharesLose reports whether binding v onto any instance of module mi
// would cost more than bound (true when there is none).
func (st *state) sharesLose(v cdfg.NodeID, mi int, bound float64) bool {
	for _, f := range st.instancesOf[mi] {
		if st.muxEstimate(v, f) <= bound {
			return false
		}
	}
	return true
}
