package core

import (
	"pchls/internal/cdfg"
	"pchls/internal/sched"
)

// The candidate windows of one iteration live in the state's flat
// (node, module) table: wins[v*nm+mi] with a parallel winSet presence bit.
// A flat table replaces the former map-of-maps, which allocated a fresh
// two-level map every iteration and dominated the synthesize profile.

func (st *state) setWin(v cdfg.NodeID, mi int, w sched.Window) {
	idx := int(v)*st.nm + mi
	st.wins[idx] = w
	st.winSet[idx] = true
}

func (st *state) getWin(v cdfg.NodeID, mi int) (sched.Window, bool) {
	idx := int(v)*st.nm + mi
	return st.wins[idx], st.winSet[idx]
}

// candidateWindows computes, once per iteration, the feasible window of
// every (uncommitted op, module) candidate into the state's flat window
// table: point windows once locked, the SDC bounds above sdcGraphNodes,
// and otherwise the exhaustive pasap/palap windows. The assumed-module
// windows all come from one pasap/palap pair (baseWindows); each other
// candidate needs an override pair, served from the engine's cache when
// an entry survived the commitments since it was derived. Entries are
// stored only when the base pair succeeded, since the cache's validity
// rests on it.
func (st *state) candidateWindows() {
	if st.cfg.coldWindows {
		st.auditCommitted()
		st.eng.invalidateWindows()
	}
	for i := range st.winSet {
		st.winSet[i] = false
	}
	if st.locked {
		for i, c := range st.committed {
			if !c {
				v := cdfg.NodeID(i)
				st.setWin(v, st.moduleOf[v], sched.Window{Early: st.start[v], Late: st.start[v]})
			}
		}
		return
	}
	if st.sdc {
		st.sdcWindows()
		return
	}
	eng := st.eng
	baseOK := st.baseWindows()
	if !baseOK && eng.warm {
		// The override entries that survived the last commitment rest on
		// the base pair, which no longer exists.
		eng.invalidateWindows()
		st.stats.FullInvalidations++
	}
	for i, c := range st.committed {
		if c {
			continue
		}
		v := cdfg.NodeID(i)
		for _, mi := range st.cand[v] {
			if mi == st.moduleOf[v] && baseOK {
				if w := eng.baseWin[v]; w.Width() >= 1 {
					st.setWin(v, mi, w)
				}
				continue
			}
			idx := int(v)*st.nm + mi
			if eng.overSet[idx] {
				st.stats.WindowCacheHits++
				if ent := eng.over[idx]; ent.ok {
					st.setWin(v, mi, ent.w)
				}
				continue
			}
			st.stats.WindowCacheMisses++
			ent := st.computeEntry(v, mi)
			if baseOK {
				eng.over[idx] = ent
				eng.overSet[idx] = true
			}
			if ent.ok {
				st.setWin(v, mi, ent.w)
			}
		}
	}
	eng.warm = baseOK
}

// baseWindows derives the base windows (every node under its assumed
// module) into eng.baseWin and reports whether the base pair succeeded.
// It reuses them outright when the last commitment provably left the pair
// unchanged (baseValid); otherwise it runs the full pair, reusing the
// exact post-commit probe, when present, as the Early schedule.
func (st *state) baseWindows() bool {
	eng := st.eng
	if eng.warm && eng.baseValid {
		return true
	}
	opts := st.schedOpts()
	early, err := eng.probe, error(nil)
	if early == nil {
		st.stats.SchedulerRuns++
		early, err = sched.PASAP(st.g, st.baseBind, opts)
	}
	if err != nil || early.Length() > st.cons.Deadline {
		return false
	}
	st.stats.SchedulerRuns++
	late, err := sched.PALAP(st.g, st.baseBind, st.cons.Deadline, opts)
	if err != nil {
		return false
	}
	for i := range eng.baseWin {
		eng.baseWin[i] = sched.Window{Early: early.Start[i], Late: late.Start[i]}
	}
	eng.probe = early
	// Snapshot the module assumptions the cached runs are made under;
	// entry validity across a later commitment requires the committed
	// module to match this snapshot.
	eng.assumed = append(eng.assumed[:0], st.moduleOf...)
	return true
}

// sdcWindows derives every candidate window from the SDC
// difference-constraint bounds: one O(V+E) longest-path pass per
// iteration, then an O(1) lookup per (node, module) candidate — Early[v]
// never depends on v's own delay and LateEnd[v] doesn't either while v is
// uncommitted, so a module override is just a different subtraction. This
// replaces the O(n·m) override pasap/palap pairs of the exhaustive path,
// which is what makes thousand-node synthesis tractable.
//
// The bounds ignore the power cap, so these windows are supersets of the
// power-feasible exhaustive ones. Soundness is unaffected: every placement
// is still checked against the committed power profile (freeSlot), every
// commit is re-probed by the full power-aware pasap, repair handles
// stranded operations, and the final schedule passes Validate — the
// relaxation only widens which decisions get considered. Modules whose
// own power exceeds the cap are rejected here exactly as windowSchedsFor
// rejects them.
func (st *state) sdcWindows() {
	st.stats.SDCDerivations++
	st.fillFixedStarts()
	sched.DeriveSDCBounds(st.g, st.topo, st.cons.Deadline, st.delays, st.fixedStarts,
		st.cfg.release, st.cfg.due, &st.sdcB)
	// Power-aware bound propagation: when an ambient baseProfile carries the
	// power already committed by other parts of a decomposed synthesis, any
	// feasible start must leave headroom for the candidate's own draw across
	// its whole execution — so window ends sitting under saturated ambient
	// cycles can be pulled in before any placement probe runs. freeSlot
	// re-checks every interior cycle, so this only removes starts that were
	// doomed anyway (and the slot probes they would cost).
	tighten := st.cons.PowerMax > 0 && len(st.cfg.baseProfile) > 0
	for i, c := range st.committed {
		if c {
			continue
		}
		v := cdfg.NodeID(i)
		early := st.sdcB.Early[v]
		for _, mi := range st.cand[v] {
			m := st.lib.Module(mi)
			if st.cons.PowerMax > 0 && m.Power > st.cons.PowerMax+1e-9 {
				continue
			}
			w := sched.Window{Early: early, Late: st.sdcB.LateEnd[v] - m.Delay}
			if tighten {
				var changed bool
				if w, changed = st.tightenWindow(mi, m.Delay, w); changed {
					st.stats.BoundTightenings++
				}
			}
			if w.Width() >= 1 {
				st.setWin(v, mi, w)
			}
		}
	}
}

// tightenWindow shrinks an SDC candidate window to the nearest start cycles
// whose full execution interval fits under the ambient baseProfile draw:
// starts where base(c) + module power would break the cap for some covered
// cycle c are skipped from both ends. Interior starts are left to freeSlot.
// The per-module blocked-cycle tables are built lazily and reused for the
// life of the state (baseProfile never changes within one run).
func (st *state) tightenWindow(mi, d int, w sched.Window) (sched.Window, bool) {
	T := st.cons.Deadline
	next, prev := st.tightNext[mi], st.tightPrev[mi]
	if next == nil {
		power := st.lib.Module(mi).Power
		// next[c]: smallest cycle >= c with no headroom (T+1 when none);
		// prev[c]: largest such cycle <= c (-1 when none).
		next = make([]int, T+2)
		prev = make([]int, T+1)
		next[T+1] = T + 1
		blocked := func(c int) bool {
			return st.baseAt(c)+power > st.cons.PowerMax+1e-9
		}
		for c := T; c >= 0; c-- {
			if blocked(c) {
				next[c] = c
			} else {
				next[c] = next[c+1]
			}
		}
		last := -1
		for c := 0; c <= T; c++ {
			if blocked(c) {
				last = c
			}
			prev[c] = last
		}
		if st.tightNext == nil {
			st.tightNext = make(map[int][]int)
			st.tightPrev = make(map[int][]int)
		}
		st.tightNext[mi], st.tightPrev[mi] = next, prev
	}
	e, l := w.Early, w.Late
	// Jump the early end past blocked runs: a start e is viable only when
	// the first blocked cycle at or after it lies beyond e+d-1.
	for e >= 0 && e <= l && e <= T {
		b := next[e]
		if b >= e+d {
			break
		}
		e = b + 1
	}
	// Mirror for the late end: viable when the last blocked cycle at or
	// before l+d-1 lies before l.
	for l >= e && l >= 0 {
		hi := l + d - 1
		if hi > T {
			hi = T
		}
		if hi < 0 {
			break
		}
		b := prev[hi]
		if b < l {
			break
		}
		l = b - d
	}
	if e == w.Early && l == w.Late {
		return w, false
	}
	return sched.Window{Early: e, Late: l}, true
}

// muxEstimate approximates the interconnect cost of binding v onto
// instance f: one new multiplexer input for every operand port of v whose
// producer differs from the producers already feeding that port of f, and
// one for the result port when f already has operations (its output fans
// to a new destination register). This mirrors bind.Build's mux model
// using producer nodes as register proxies (registers do not exist yet at
// decision time).
func (st *state) muxEstimate(v cdfg.NodeID, f int) float64 {
	fu := st.fus[f]
	if len(fu.ops) == 0 {
		return 0
	}
	inputs := 0
	preds := st.g.Preds(v)
	for port, p := range preds {
		seen := false
		fresh := false
		for _, op := range fu.ops {
			ep := st.g.Preds(op)
			if port < len(ep) {
				seen = true
				if ep[port] != p {
					fresh = true
				}
			}
		}
		if seen && fresh {
			inputs++
		}
	}
	// Result-side fan-out: sharing adds one register-write source.
	inputs++
	return float64(inputs) * st.cm.MuxInputArea
}

// amortizedArea estimates the effective cost of allocating a new instance
// of module mi: its area divided by the number of operations it could
// plausibly end up serving — the uncommitted operations of matching type,
// capped by the number of executions that fit in the deadline.
func (st *state) amortizedArea(mi int) float64 {
	m := st.lib.Module(mi)
	potential := 0
	for i, c := range st.committed {
		if !c && m.Implements(st.g.Node(cdfg.NodeID(i)).Op) {
			potential++
		}
	}
	return st.amortizedAreaWith(mi, potential)
}

// amortizedAreaWith is amortizedArea with the potential-implementer count
// precomputed — bestDecision counts all modules in one sweep instead of
// re-scanning the graph per candidate.
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
// profile[c] + base(c) + p <= P<. Blocked starts are skipped in jumps
// (past a colliding operation, past an over-cap cycle) rather than one
// cycle at a time; every skipped start is blocked by the same cause.
func (st *state) fit(x cdfg.NodeID, busy []cdfg.NodeID, lo, hi, d int, p float64, late bool) (int, bool) {
	hi = min(hi, st.cons.Deadline-d)
	t := lo
	if late {
		t = hi
	}
search:
	for lo <= t && t <= hi {
		for _, o := range busy {
			if s, e := st.start[o], st.start[o]+st.delays[o]; o != x && s < t+d && t < e {
				t = e
				if late {
					t = s - d
				}
				continue search
			}
		}
		if st.cons.PowerMax > 0 {
			for c := t; c < t+d; c++ {
				if st.profile[c]+st.baseAt(c)+p > st.cons.PowerMax+1e-9 {
					t = c + 1
					if late {
						t = c - d
					}
					continue search
				}
			}
		}
		return t, true
	}
	return 0, false
}

// bestDecision evaluates the current compatibility structure and returns
// the cheapest admissible decision: bind an uncommitted operation onto an
// existing instance, or allocate a new instance for it. Whether v can
// share instance f — an edge of the paper's V1 graph — is decided on
// demand by freeSlot over v's window and f's operations. Ties break toward
// the most schedule-constrained operation (smallest window), then the
// smallest node ID, then the smallest module area — all deterministic.
func (st *state) bestDecision() (Decision, bool) {
	st.candidateWindows()
	best := Decision{FU: -1}
	bestWidth, bestWeight := 0, 0.0
	found := false

	// Per-module count of uncommitted operations it could implement, for
	// the amortized-area estimate; one sweep instead of one graph scan per
	// (op, module) candidate. mi implements node i's op exactly when mi is
	// among the op's candidate modules.
	for mi := range st.potential {
		st.potential[mi] = 0
	}
	for i, c := range st.committed {
		if c {
			continue
		}
		for _, mi := range st.cand[i] {
			st.potential[mi]++
		}
	}

	// weight ranks operations by how expensive their resource class is
	// (the cheapest module that could implement them): multiplications
	// before ALU operations before transfers. Binding the expensive
	// resources first keeps their sharing opportunities intact; cheap
	// transfers adapt around them.
	consider := func(d Decision, width int) {
		w := st.smallestArea[d.Node]
		if st.jitterW != nil {
			// Seeded priority-order jitter: scale the resource-class weight
			// so perturbed passes explore different commit orders.
			w *= st.jitterW[d.Node]
		}
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

	for i := 0; i < st.g.N(); i++ {
		v := cdfg.NodeID(i)
		if st.committed[v] {
			continue
		}
		// Best new-instance module for v, chosen by amortized area so that
		// a slightly larger multi-function unit (the ALU) beats several
		// single-function units — the effect the clique formulation
		// captures globally. Ranked against other decisions at FULL area,
		// so sharing an existing instance always wins when feasible.
		newMi, newStart, newWidth := -1, 0, 0
		var newAmort float64
		for _, mi := range st.cand[v] {
			w, ok := st.getWin(v, mi)
			if !ok {
				continue
			}
			m := st.lib.Module(mi)
			// Share an existing instance of the same module.
			for f := range st.fus {
				if st.fus[f].module != mi {
					continue
				}
				if t, ok := st.freeSlot(v, st.fus[f].ops, w, m.Delay, m.Power); ok {
					consider(Decision{
						Node: v, Module: m.Name, FU: f, NewFU: false,
						Start: t, Cost: st.muxEstimate(v, f),
					}, w.Width())
				}
			}
			if t, ok := st.freeSlot(v, nil, w, m.Delay, m.Power); ok {
				a := st.amortizedAreaWith(mi, st.potential[mi])
				if newMi < 0 || a < newAmort {
					newMi, newStart, newWidth, newAmort = mi, t, w.Width(), a
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
