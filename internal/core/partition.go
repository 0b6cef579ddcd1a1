package core

import (
	"context"
	"fmt"
	"slices"

	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/runner"
	"pchls/internal/sched"
	"pchls/internal/verify"
)

// mincutGraphNodes is the auto-policy threshold for min-cut decomposition
// of connected graphs: below it the monolithic SDC path is already fast and
// cutting would only cost QoR. Chosen above the ~420-node layered-n300
// benchmark graph and below the ~1400-node n=1000 tiers.
const mincutGraphNodes = 512

// mincutPartTarget is the node count each min-cut part aims for: big enough
// that parts land on the SDC window path themselves, small enough that the
// serial work drops by an order of magnitude (the greedy loop is
// superlinear in the node count).
const mincutPartTarget = 200

// synthesizePartitioned is the hierarchical-decomposition entry point for
// graphs that usePartition selected. It only picks the parts and the cut
// between them; synthesizeWaves does the rest. Graphs with two or more
// weakly-connected components split along component boundaries with no cut
// edges (the parts share no data dependency). Connected graphs large enough
// for the cut to pay off (or forced by partitionForce) split along a
// balanced min edge cut (cdfg.PartitionBalanced). Anything else synthesizes
// monolithically.
func synthesizePartitioned(g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config) (*Design, error) {
	parts := g.Components()
	var cut []cdfg.CutEdge
	if len(parts) < 2 {
		if cfg.partition != partitionForce && g.N() < mincutGraphNodes {
			return synthesizeMono(g, lib, cons, cfg)
		}
		k := min(max(g.N()/mincutPartTarget, 2), 16)
		var err error
		parts, cut, err = g.PartitionBalanced(k)
		if err != nil || len(parts) < 2 {
			return synthesizeMono(g, lib, cons, cfg)
		}
	}
	return synthesizeWaves(g, lib, cons, cfg, parts, cut)
}

// regionConfig strips the per-region synthesis config of everything that
// belongs to the whole-graph run: nested decomposition, worker fan-out,
// the incumbent area bound and the kit pool of the whole graph.
// synthesizeWaves sets each part's ambient profile and boundary pins
// itself.
func regionConfig(cfg Config) Config {
	cfg.partition = partitionOff
	cfg.Workers = 1
	cfg.AreaBound = 0
	cfg.kits = nil
	return cfg
}

// synthesizeWaves synthesizes the parts of a decomposition wave by wave on
// the worker pool and stitches the results. Parts are lists of parent node
// IDs in quotient-topological order (no cut edge runs from a later part to
// an earlier one); cut lists the severed dependencies. Parts with no cut
// edges between them run concurrently, and every cut edge u -> v is
// re-imposed on the downstream part as a release — v may not start before
// u's committed finish — enforced through the same SDC sweeps and
// pasap/palap bounds as in-part precedence (sched.Options.Release/Due), not
// a separate mechanism. Two measures keep the cut's QoR loss in check:
//
//   - Boundary sources carry dues from the whole-graph SDC completion
//     bounds under fastest-feasible delays, so area descent inside an
//     upstream part cannot consume slack that downstream parts need.
//   - Parts see the per-cycle power committed by earlier waves as an
//     ambient baseProfile, the value their committed profile starts from,
//     so every P< check of a part counts it as committed power.
//
// Weakly-connected components are the zero-cut case: every part lands in
// wave 0 and nothing gets a release or a due.
//
// Within a wave, parts are power-coupled only: each respects the cap alone
// but may break it jointly. An acceptance walk in part order re-synthesizes
// any member whose committed profile breaks the cap against the power
// accepted so far, with that accumulated profile as its baseProfile, so the
// stitched union respects P< by construction (each re-synthesized part
// counts in Stats.RegionRepairs). Any part failure, or a stitch that fails
// validation, abandons the decomposition for the monolithic path
// (Stats.PartitionFallbacks). The stitched result must pass verify.Check.
//
// Deterministic for every worker count: the wave grouping, the acceptance
// order, and the stitch all follow part order.
func synthesizeWaves(g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config, parts [][]cdfg.NodeID, cut []cdfg.CutEdge) (*Design, error) {
	n := g.N()
	partIdx := make([]int, n)
	localIdx := make([]int, n)
	for pi, ids := range parts {
		for li, id := range ids {
			partIdx[id] = pi
			localIdx[id] = li
		}
	}
	subs := make([]*cdfg.Graph, len(parts))
	realNs := make([]int, len(parts))
	for pi, ids := range parts {
		sub, err := g.InducedSubgraph(fmt.Sprintf("%s#%d", g.Name, pi), ids)
		if err != nil {
			return nil, fmt.Errorf("core: internal error extracting part %d: %w", pi, err)
		}
		realNs[pi] = sub.N()
		addGhostInput(sub)
		subs[pi] = sub
	}

	// Group parts into waves by longest cut-edge chain: parts in one wave
	// have no cut edges between them (an edge always strictly increases the
	// level), so they are data-independent. Part indices are already
	// quotient-topological, which keeps every computation below one pass.
	level := make([]int, len(parts))
	maxLevel := 0
	outEdges := make([][]cdfg.CutEdge, len(parts))
	for _, e := range cut {
		pu, pv := partIdx[e.U], partIdx[e.V]
		outEdges[pu] = append(outEdges[pu], e)
		if l := level[pu] + 1; l > level[pv] {
			level[pv] = l
		}
		if level[pv] > maxLevel {
			maxLevel = level[pv]
		}
	}
	waves := make([][]int, maxLevel+1)
	for pi := range parts {
		waves[level[pi]] = append(waves[level[pi]], pi)
	}

	// Boundary dues: the latest completion each cut-edge source can afford
	// under the whole-graph difference constraints with fastest-feasible
	// delays — the loosest precedence-valid bound, so a feasible monolithic
	// schedule never becomes part-infeasible through the due alone.
	fast, err := fastestDelays(g, lib, cons)
	if err != nil {
		return synthesizeMono(g, lib, cons, cfg)
	}
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("core: internal error: %w", err)
	}
	free := make([]int, n)
	for i := range free {
		free[i] = -1
	}
	var wb sched.SDCBounds
	sched.DeriveSDCBounds(g, topo, cons.Deadline, fast, free, nil, nil, &wb)

	releases := make([][]int, len(parts))
	dues := make([][]int, len(parts))
	for pi := range parts {
		releases[pi] = make([]int, subs[pi].N())
		dues[pi] = make([]int, subs[pi].N())
	}
	for _, e := range cut {
		pu, lu := partIdx[e.U], localIdx[e.U]
		if d := wb.LateEnd[e.U]; d > 0 && (dues[pu][lu] == 0 || d < dues[pu][lu]) {
			dues[pu][lu] = d
		}
	}

	var driver Stats
	driver.CutEdges = int64(len(cut))
	rcfg := regionConfig(cfg)
	base := make([]float64, cons.Deadline)
	// partConfig is part pi's config against the power accepted so far and
	// its boundary pins.
	partConfig := func(pi int) Config {
		rc := rcfg
		rc.baseProfile = base
		rc.release = releases[pi]
		rc.due = dues[pi]
		return rc
	}
	ds := make([]*Design, len(parts))
	failed := false
waveLoop:
	for _, wave := range waves {
		results, err := runner.Map(context.Background(), len(wave), runner.Config{Workers: cfg.Workers},
			func(_ context.Context, i int) (synthResult, error) {
				// base and the pins are read-only while the wave runs.
				d, err := Synthesize(subs[wave[i]], lib, cons, partConfig(wave[i]))
				return synthResult{d, err}, nil
			})
		if err != nil {
			failed = true
			break
		}
		// Acceptance walk in part order: within a wave the parts are
		// power-coupled only, so a member whose profile jointly breaks the
		// cap against everything accepted so far is re-synthesized alone
		// against the accumulated base — after which it fits by
		// construction.
		for i, pi := range wave {
			d, derr := results[i].d, results[i].err
			if derr == nil && cons.PowerMax > 0 && !fitsUnderBase(base, d, realNs[pi], cons.PowerMax) {
				driver.RegionRepairs++
				d, derr = Synthesize(subs[pi], lib, cons, partConfig(pi))
			}
			if derr != nil {
				failed = true
				break waveLoop
			}
			ds[pi] = d
			addRealPower(base, d, realNs[pi])
			// Thread the committed finish of every cut-edge source into the
			// downstream part's release: the boundary transfer.
			for _, e := range outEdges[pi] {
				fin := d.Schedule.Start[localIdx[e.U]] + d.Schedule.Delay[localIdx[e.U]]
				pv, lv := partIdx[e.V], localIdx[e.V]
				if fin > releases[pv][lv] {
					releases[pv][lv] = fin
				}
				driver.BoundaryTransfers++
			}
		}
	}
	if !failed {
		if d, err := stitchRegions(g, lib, cons, cfg, parts, realNs, ds, driver); err == nil {
			return d, nil
		}
	}
	d, err := synthesizeMono(g, lib, cons, cfg)
	if d != nil {
		d.Stats.PartitionFallbacks++
	}
	return d, err
}

// addGhostInput repairs the arity of an induced part in place: a
// computation whose predecessors were all severed by the cut would fail
// cdfg.Validate (fan-in minimums), so one shared synthetic Input node —
// appended last, local ID = the part's real node count — feeds every such
// node. The ghost schedules like any input transfer inside the part and is
// filtered back out at stitch time.
func addGhostInput(sub *cdfg.Graph) {
	var needs []cdfg.NodeID
	for id := 0; id < sub.N(); id++ {
		v := cdfg.NodeID(id)
		if len(sub.Preds(v)) == 0 && sub.Node(v).Op.MinFanIn() > 0 {
			needs = append(needs, v)
		}
	}
	if len(needs) == 0 {
		return
	}
	name := "__cut_in"
	for i := 0; ; i++ {
		if _, ok := sub.Lookup(name); !ok {
			break
		}
		name = fmt.Sprintf("__cut_in%d", i)
	}
	ghost := sub.MustAddNode(name, cdfg.Input)
	for _, v := range needs {
		sub.MustAddEdge(ghost, v)
	}
}

// fastestDelays returns each node's delay under the fastest power-feasible
// module — the same initial assumption newState makes — for the whole-graph
// due derivation of the min-cut path.
func fastestDelays(g *cdfg.Graph, lib *library.Library, cons Constraints) ([]int, error) {
	delays := make([]int, g.N())
	for _, node := range g.Nodes() {
		mi, err := fastestFeasible(lib, cons, node.Op)
		if err != nil {
			return nil, err
		}
		delays[node.ID] = lib.Module(mi).Delay
	}
	return delays, nil
}

// fitsUnderBase reports whether the design's committed power (ghost nodes
// excluded) stays under the cap on top of the ambient base at every cycle.
func fitsUnderBase(base []float64, d *Design, realN int, powerMax float64) bool {
	prof := make([]float64, len(base))
	addRealPower(prof, d, realN)
	for c := range prof {
		if prof[c]+base[c] > powerMax+1e-9 {
			return false
		}
	}
	return true
}

// addRealPower accumulates the per-cycle power of the design's first realN
// nodes (the non-ghost ones) into dst.
func addRealPower(dst []float64, d *Design, realN int) {
	for li := 0; li < realN; li++ {
		s, dl, p := d.Schedule.Start[li], d.Schedule.Delay[li], d.Schedule.Power[li]
		for c := s; c < s+dl && c < len(dst); c++ {
			dst[c] += p
		}
	}
}

// stitchRegions merges per-part designs into one design over the parent
// graph: committed starts, modules and binding carry over (module indices
// agree — every part shares the parent library), functional units
// concatenate with re-based indices, and the commit logs append in part
// order. realNs gives each part's real node count: nodes at or past it are
// min-cut ghost inputs, dropped from the stitched design along with any
// instance or decision that only served them (instance indices are
// remapped). driver carries the cut/boundary/repair counters of
// synthesizeWaves into the stitched stats.
//
// The merge pass then reconciles shared instances across part
// boundaries, the shift-merge pass re-times operations within precedence
// slack to share instances whose reservations collide (cross-region
// sharing), the two alternate until the plain pass merges nothing after a
// shift-merge pass, finish re-validates the joint schedule — this is where a
// severed dependency a part scheduled too early surfaces as an error — and
// verify.Check independently re-derives every constraint on the stitched
// result.
func stitchRegions(g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config, parts [][]cdfg.NodeID, realNs []int, regions []*Design, driver Stats) (*Design, error) {
	cfg.partition = partitionOff
	st, err := newState(g, lib, cons, cfg)
	if err != nil {
		return nil, err
	}
	defer st.release()
	st.stats = st.stats.Add(driver)
	for ri, d := range regions {
		ids, rn := parts[ri], realNs[ri]
		fuBase := len(st.fus)
		fuMap := make([]int, len(d.FUs))
		kept := 0
		for fi := range d.FUs {
			mi, ok := st.nameToMi[d.FUs[fi].Module.Name]
			if !ok {
				return nil, fmt.Errorf("core: stitch: region %d references unknown module %q", ri, d.FUs[fi].Module.Name)
			}
			var ops []cdfg.NodeID
			for _, lv := range d.FUs[fi].Ops {
				if int(lv) < rn {
					ops = append(ops, ids[lv])
				}
			}
			if len(ops) == 0 {
				// The instance only hosted ghost inputs; it does not exist
				// in the stitched design.
				fuMap[fi] = -1
				continue
			}
			fuMap[fi] = kept
			kept++
			st.addInstance(mi, ops)
			st.fuAreaCommitted += lib.Module(mi).Area
		}
		for li, old := range ids {
			mi, ok := st.nameToMi[d.Schedule.Module[li]]
			if !ok {
				return nil, fmt.Errorf("core: stitch: region %d references unknown module %q", ri, d.Schedule.Module[li])
			}
			st.markCommitted(old, true)
			st.start[old] = d.Schedule.Start[li]
			st.setModule(old, mi)
			st.fuOf[old] = fuBase + fuMap[d.FUOf[li]]
		}
		for _, dec := range d.Decisions {
			if int(dec.Node) >= rn {
				continue // ghost commit
			}
			st.decisions = append(st.decisions, Decision{
				Node: ids[dec.Node], Module: dec.Module, FU: fuBase + fuMap[dec.FU],
				NewFU: dec.NewFU, Start: dec.Start, Cost: dec.Cost,
			})
		}
		st.locked = st.locked || d.Locked
		st.stats = st.stats.Add(d.Stats)
		st.stats.Regions++
	}
	st.rebuildCommitted()
	st.mergePass()
	// A shift-merge sweep over a state a whole sweep already failed on
	// fails again, so the loop ends once the plain pass merges nothing.
	for st.shiftMergePass() && st.mergePass() {
	}
	if stitched != nil {
		stitched(st)
	}
	d, err := st.finish()
	if err != nil {
		return nil, err
	}
	if err := verify.Check(VerifyInput(d)); err != nil {
		return nil, fmt.Errorf("core: stitched design rejected by the verifier: %w", err)
	}
	return d, nil
}

// stitched, when set, is called with the stitch's state once its merge
// passes are done, before finish. Test-only: the stitch pricing
// differential sweeps every pair again there.
var stitched func(st *state)

// shiftMergePass is the cross-region instance-sharing pass of the stitch:
// instance pairs the plain merge pass cannot combine — same module with
// overlapping reservations, or different modules hosting the same
// operation class — are reconciled by re-timing (and, across modules,
// re-binding) operations within their precedence-local slack, and merged
// when every collision resolves and the exact datapath area shrinks. Runs
// after all operations are committed; returns whether anything merged.
// Each attempt is priced by area and validated by check, so no design is
// assembled until the stitch's one finish.
func (st *state) shiftMergePass() bool {
	if st.check() != nil {
		return false
	}
	cur := st.area(true)
	return st.sweepPairs(func(i, j int) bool {
		if st.fus[i].module == st.fus[j].module && !st.overlaps(i, j) {
			return false // the plain merge pass handles these
		}
		a, ok := st.tryShiftMerge(i, j, cur)
		if ok {
			cur = a
			st.stats.SharedCrossRegion++
		}
		return ok
	})
}

// tryShiftMerge re-times operations so instances i and j can share one
// timeline, then merges j into i when the exact area strictly improves.
// Same-module pairs attempt three progressively more aggressive
// re-timings: move j's operations around i's fixed ones, move i's around
// j's, and finally re-pack the union from an empty timeline.
// Different-module pairs additionally re-bind one side's operations onto
// the other's module (both directions tried) before re-timing. The first
// attempt that shrinks the exact area (area) and passes finish's full
// validation (check) wins.
//
// Attempts change the engine's own start, moduleOf and profile in place,
// and every value they overwrite goes to the undo log; a rejected attempt
// is rolled back by restoring the saved values, so the next one starts
// from the entry state bit for bit. The profile is rebuilt from scratch
// after an accepted attempt and, once the remaining attempts are done,
// after a packed attempt that was rejected: a rebuild sums in instance
// order, so deferring it keeps every attempt of the call on the bits it
// entered with. Returns the new area and whether a merge was kept.
func (st *state) tryShiftMerge(i, j int, cur float64) (float64, bool) {
	mi, mj := st.fus[i].module, st.fus[j].module
	type attempt struct {
		rebind int // instance whose ops are re-bound to target first, or -1
		target int // merged instance's module
		fixed  int // instance packShift keeps in place, or -1 for neither
		ripple bool
	}
	hosts := func(mi, f int) bool {
		m := st.lib.Module(mi)
		for _, x := range st.fus[f].ops {
			if !m.Implements(st.g.Node(x).Op) {
				return false
			}
		}
		return true
	}
	var buf [6]attempt
	attempts := buf[:0]
	if mi == mj {
		attempts = append(attempts,
			attempt{-1, mi, i, false},
			attempt{-1, mi, j, false},
			attempt{-1, mi, -1, false},
			attempt{-1, mi, -1, true})
	} else {
		if hosts(mi, j) {
			attempts = append(attempts,
				attempt{j, mi, i, false},
				attempt{j, mi, -1, false},
				attempt{j, mi, -1, true})
		}
		if hosts(mj, i) {
			attempts = append(attempts,
				attempt{i, mj, j, false},
				attempt{i, mj, -1, false},
				attempt{i, mj, -1, true})
		}
	}
	rebuild := false
	for _, at := range attempts {
		if at.rebind >= 0 {
			for _, x := range st.fus[at.rebind].ops {
				st.logDraw(x, true)
				st.logModule(x, at.target)
				st.logDraw(x, false)
			}
		}
		var ok bool
		if at.ripple {
			ok = st.ripplePack(i, j)
		} else {
			ok = st.packShift(i, j, at.fixed)
		}
		if ok {
			m := st.mergeFUs(i, j, slices.Clone(st.packBuf))
			st.fus[i].module = at.target
			a := st.area(true)
			if priced != nil {
				priced(st, a)
			}
			if a < cur-1e-9 && st.check() == nil {
				st.undo, st.moved = st.undo[:0], st.moved[:0]
				st.rebuildCommitted()
				return a, true
			}
			st.unmerge(m)
			rebuild = true
		}
		st.rollback()
	}
	if rebuild {
		st.rebuildCommitted()
	}
	return cur, false
}

// undoRec is one saved value of the shift merge's undo log: the start or
// the module of node at, or the profile value of cycle at.
type undoRec struct {
	kind undoKind
	at   int
	old  int
	oldP float64
}

type undoKind uint8

const (
	undoStart undoKind = iota
	undoModule
	undoProfile
)

// logStart moves x to start t under the undo log.
func (st *state) logStart(x cdfg.NodeID, t int) {
	st.undo = append(st.undo, undoRec{kind: undoStart, at: int(x), old: st.start[x]})
	st.start[x] = t
}

// logModule re-binds x to module mi under the undo log.
func (st *state) logModule(x cdfg.NodeID, mi int) {
	st.undo = append(st.undo, undoRec{kind: undoModule, at: int(x), old: st.moduleOf[x]})
	st.setModule(x, mi)
}

// logDraw adds x's power over its execution to the profile, or withdraws
// it when remove is set, under the undo log.
func (st *state) logDraw(x cdfg.NodeID, remove bool) {
	p := st.powers[x]
	if remove {
		p = -p
	}
	for c := st.start[x]; c < st.start[x]+st.delays[x] && c < len(st.profile); c++ {
		st.undo = append(st.undo, undoRec{kind: undoProfile, at: c, oldP: st.profile[c]})
		st.profile[c] += p
	}
}

// rollback restores every value the undo log saved, newest first, and
// empties the log; then it re-sorts the timelines a re-timing re-ordered
// (moved), whose starts are now restored.
func (st *state) rollback() {
	for k := len(st.undo) - 1; k >= 0; k-- {
		switch r := st.undo[k]; r.kind {
		case undoStart:
			st.start[r.at] = r.old
		case undoModule:
			st.setModule(cdfg.NodeID(r.at), r.old)
		case undoProfile:
			st.profile[r.at] = r.oldP
		}
	}
	st.undo = st.undo[:0]
	for _, f := range st.moved {
		slices.SortFunc(st.fus[f].line, st.byStart)
	}
	st.moved = st.moved[:0]
}

// retime moves x, under the undo log, to the earliest start from lo at
// which its execution ends by end, collides with no operation of the
// timeline busy and fits the profile once its own draw is withdrawn. On
// failure the caller rolls the attempt back.
func (st *state) retime(x cdfg.NodeID, busy []cdfg.NodeID, lo, end int) bool {
	st.logDraw(x, true)
	d := st.delays[x]
	t, ok := st.fit(x, busy, lo, end-d, d, st.powers[x], false)
	if !ok {
		return false
	}
	st.logStart(x, t)
	st.logDraw(x, false)
	return true
}

// readyAt returns the cycle by which all of x's predecessors finish.
func (st *state) readyAt(x cdfg.NodeID) int {
	lo := 0
	for _, pr := range st.g.Preds(x) {
		lo = max(lo, st.start[pr]+st.delays[pr])
	}
	return lo
}

// shiftOps starts a re-timing of instances i and j: it sets the ordered
// insertion list packBuf to the timeline of instance fixed (empty when
// -1) and returns the moving operations — the other of i and j, or both
// merged — in committed start order. Committed schedules satisfy
// precedence, so that order is precedence-consistent even across two
// instances. Each moved operation joins packBuf at its new start, so
// packBuf stays a timeline the next fit can search.
func (st *state) shiftOps(i, j, fixed int) []cdfg.NodeID {
	st.packBuf = st.packBuf[:0]
	switch fixed {
	case i:
		st.packBuf = append(st.packBuf, st.fus[i].line...)
		return st.fus[j].line
	case j:
		st.packBuf = append(st.packBuf, st.fus[j].line...)
		return st.fus[i].line
	}
	st.shiftBuf = st.mergeLines(st.shiftBuf[:0], st.fus[i].line, st.fus[j].line)
	return st.shiftBuf
}

// packShift re-times the operations of i and j other than the fixed
// instance's to the earliest collision-free, power-feasible starts inside
// their precedence-local windows, around the fixed instance's operations.
// Operations move in committed start order and eagerly, so later ones see
// updated predecessor finishes. Moves go under the undo log; on failure
// the caller rolls them back. On success packBuf is the timeline of the
// union.
func (st *state) packShift(i, j, fixed int) bool {
	for _, x := range st.shiftOps(i, j, fixed) {
		end := st.cons.Deadline
		for _, sc := range st.g.Succs(x) {
			// Successors that move too are re-placed after x (the start
			// order respects precedence), with a lower bound that already
			// covers this edge — they do not pin x's window.
			if f := st.fuOf[sc]; (f == i || f == j) && f != fixed {
				continue
			}
			end = min(end, st.start[sc])
		}
		if !st.retime(x, st.packBuf, st.readyAt(x), end) {
			return false
		}
		st.packBuf = st.insertLine(st.packBuf, x)
	}
	return true
}

// ripplePack is the most aggressive re-timing of the shift merge: the
// union of instances i's and j's operations is re-packed onto one
// timeline ignoring successor pins entirely, and the resulting precedence
// violations are repaired by a single right-shift sweep over the whole
// graph in topological order — each violated node moves to the earliest
// collision-free, power-feasible start at or after its predecessors'
// updated finishes, on its own instance's live reservations. Right-only
// moves in topological order restore precedence globally without
// revisiting: when a node's turn comes, its predecessors are final.
// Zero-slack neighborhoods that packShift cannot touch (every region ends
// up deadline-tight after its own area descent) become mergeable at the
// price of re-timing bystander operations; finish's full validation
// (check) still gates acceptance. Same contract as packShift.
func (st *state) ripplePack(i, j int) bool {
	T := st.cons.Deadline
	// Phase 1: re-pack the union, earliest-fit after live predecessor
	// finishes, successors unconstrained (the sweep repairs them).
	for _, x := range st.shiftOps(i, j, -1) {
		if !st.retime(x, st.packBuf, st.readyAt(x), T) {
			return false
		}
		st.packBuf = st.insertLine(st.packBuf, x)
	}
	// Phase 2: right-shift repair sweep. Only precedence violations move;
	// every move lands on a free slot of the node's own instance (i and j
	// count as one), so instance exclusivity is preserved throughout. The
	// moved node changes places in its timeline (a bystander's line is
	// marked for rollback to re-sort).
	for _, v := range st.topoOrder() {
		lo := st.readyAt(v)
		if st.start[v] >= lo {
			continue
		}
		line := &st.packBuf
		if f := st.fuOf[v]; f != i && f != j {
			line = &st.fus[f].line
			st.moved = append(st.moved, f)
		}
		k, _ := slices.BinarySearchFunc(*line, v, st.byStart)
		if !st.retime(v, *line, lo, T) {
			return false
		}
		*line = st.insertLine(slices.Delete(*line, k, k+1), v)
	}
	return true
}
