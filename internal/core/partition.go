package core

import (
	"context"
	"fmt"
	"sort"

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
// belongs to the whole-graph run: nested decomposition, worker fan-out and
// the incumbent area bound. synthesizeWaves sets each part's ambient
// profile and boundary pins itself.
func regionConfig(cfg Config) Config {
	cfg.partition = partitionOff
	cfg.Workers = 1
	cfg.AreaBound = 0
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
//     ambient baseProfile, which both constrains their placements and
//     tightens their SDC windows (power-aware bound propagation,
//     Stats.BoundTightenings).
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
		best := -1
		for _, mi := range lib.Candidates(node.Op) {
			m := lib.Module(mi)
			if cons.PowerMax > 0 && m.Power > cons.PowerMax+1e-9 {
				continue
			}
			if best < 0 || m.Delay < lib.Module(best).Delay {
				best = mi
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("core: no module for %s fits P< = %.3g: %w", node.Op, cons.PowerMax, ErrInfeasible)
		}
		delays[node.ID] = lib.Module(best).Delay
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
// sharing), finish re-validates the joint schedule — this is where a
// severed dependency a part scheduled too early surfaces as an error — and
// verify.Check independently re-derives every constraint on the stitched
// result.
func stitchRegions(g *cdfg.Graph, lib *library.Library, cons Constraints, cfg Config, parts [][]cdfg.NodeID, realNs []int, regions []*Design, driver Stats) (*Design, error) {
	cfg.partition = partitionOff
	st, err := newState(g, lib, cons, cfg)
	if err != nil {
		return nil, err
	}
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
			st.fus = append(st.fus, instance{module: mi, ops: ops})
			st.fuAreaCommitted += lib.Module(mi).Area
		}
		for li, old := range ids {
			mi, ok := st.nameToMi[d.Schedule.Module[li]]
			if !ok {
				return nil, fmt.Errorf("core: stitch: region %d references unknown module %q", ri, d.Schedule.Module[li])
			}
			st.committed[old] = true
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
	for st.shiftMergePass() {
		st.mergePass()
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

// shiftMergePass is the cross-region instance-sharing pass of the stitch:
// instance pairs the plain merge pass cannot combine — same module with
// overlapping reservations, or different modules hosting the same
// operation class — are reconciled by re-timing (and, across modules,
// re-binding) operations within their precedence-local slack, and merged
// when every collision resolves and the exact datapath area shrinks. Runs
// after all operations are committed; returns whether anything merged.
func (st *state) shiftMergePass() bool {
	d0, err := st.finish()
	if err != nil {
		return false
	}
	cur := d0.Area()
	any := false
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(st.fus); i++ {
			for j := i + 1; j < len(st.fus); j++ {
				if st.fus[i].module == st.fus[j].module && !st.overlaps(i, j) {
					continue // the plain merge pass handles these
				}
				if a, ok := st.tryShiftMerge(i, j, cur); ok {
					cur = a
					st.stats.SharedCrossRegion++
					changed, any = true, true
					j-- // instance j was removed; re-examine this index
				}
			}
		}
	}
	return any
}

// canHost reports whether module mi implements the operation class of
// every listed node.
func (st *state) canHost(mi int, ops []cdfg.NodeID) bool {
	for _, x := range ops {
		ok := false
		for _, c := range st.lib.Candidates(st.g.Node(x).Op) {
			if c == mi {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// tryShiftMerge re-times operations so instances i and j can share one
// timeline, then merges j into i when the exact area strictly improves.
// Same-module pairs attempt three progressively more aggressive
// re-timings: move j's operations around i's fixed reservations, move i's
// around j's, and finally re-pack the union from an empty timeline.
// Different-module pairs additionally re-bind one side's operations onto
// the other's module (both directions tried) before re-timing. The first
// attempt whose merged design passes the full finish validation and
// shrinks the exact area wins; every rejected attempt is rolled back
// completely. Returns the new area and whether a merge was kept.
func (st *state) tryShiftMerge(i, j int, cur float64) (float64, bool) {
	iOps := append([]cdfg.NodeID(nil), st.fus[i].ops...)
	jOps := append([]cdfg.NodeID(nil), st.fus[j].ops...)
	union := append(append([]cdfg.NodeID(nil), iOps...), jOps...)
	iResv := append([]interval(nil), st.resv[i]...)
	jResv := append([]interval(nil), st.resv[j]...)
	mi, mj := st.fus[i].module, st.fus[j].module
	type attempt struct {
		rebind []cdfg.NodeID // ops re-bound to the target module first
		target int           // merged instance's module
		moving []cdfg.NodeID
		fixed  []interval
		ripple bool // ripplePack instead of packShift
	}
	var attempts []attempt
	if mi == mj {
		attempts = []attempt{
			{nil, mi, jOps, iResv, false},
			{nil, mi, iOps, jResv, false},
			{nil, mi, union, nil, false},
			{nil, mi, union, nil, true},
		}
	} else {
		if st.canHost(mi, jOps) {
			attempts = append(attempts,
				attempt{jOps, mi, jOps, iResv, false},
				attempt{jOps, mi, union, nil, false},
				attempt{jOps, mi, union, nil, true})
		}
		if st.canHost(mj, iOps) {
			attempts = append(attempts,
				attempt{iOps, mj, iOps, jResv, false},
				attempt{iOps, mj, union, nil, false},
				attempt{iOps, mj, union, nil, true})
		}
	}
	// Committed per-cycle power at entry, copied once per call from the
	// maintained profile. Each attempt below works on its own copy, patched
	// for the ops it re-binds (a module change the profile has not seen),
	// so the re-timings never pay the full-profile rebuild that dominated
	// the stitch at n=1000.
	var baseProf []float64
	if st.cons.PowerMax > 0 {
		baseProf = append([]float64(nil), st.profile...)
	}
	for _, at := range attempts {
		var prof []float64
		if baseProf != nil {
			prof = append([]float64(nil), baseProf...)
		}
		oldMods := make([]int, len(at.rebind))
		for k, x := range at.rebind {
			oldMods[k] = st.moduleOf[x]
			if prof != nil {
				for c := st.start[x]; c < st.start[x]+st.delays[x] && c < len(prof); c++ {
					prof[c] -= st.powers[x]
				}
			}
			st.setModule(x, at.target)
			if prof != nil {
				for c := st.start[x]; c < st.start[x]+st.delays[x] && c < len(prof); c++ {
					prof[c] += st.powers[x]
				}
			}
		}
		unbind := func() {
			for k, x := range at.rebind {
				st.setModule(x, oldMods[k])
			}
		}
		var revert func()
		var ok bool
		if at.ripple {
			revert, ok = st.ripplePack(i, j, prof)
		} else {
			revert, ok = st.packShift(at.moving, at.fixed, prof)
		}
		if !ok {
			unbind()
			continue
		}
		saved := st.snapshotFUs()
		st.fus[i].module = at.target
		st.mergeFUs(i, j)
		st.rebuildCommitted()
		if d2, err := st.finish(); err == nil && d2.Area() < cur-1e-9 {
			return d2.Area(), true
		}
		st.restoreFUs(saved)
		revert()
		unbind()
		st.rebuildCommitted()
	}
	return cur, false
}

// packShift re-times the moving operations to the earliest
// collision-free, power-feasible starts inside their precedence-local
// windows, treating fixed as immovable reservations of the target
// instance. Operations are processed in committed start order — committed
// schedules satisfy precedence, so the order is precedence-consistent
// even across two instances — and moves apply eagerly so later operations
// see updated predecessor finishes. prof is the caller's private copy of
// the committed per-cycle power (nil without a cap); it is consumed — the
// bookkeeping mutates it freely. On success the moves are left applied
// and the returned closure undoes them; on failure everything is already
// rolled back.
func (st *state) packShift(moving []cdfg.NodeID, fixed []interval, prof []float64) (func(), bool) {
	T := st.cons.Deadline
	ops := append([]cdfg.NodeID(nil), moving...)
	sort.Slice(ops, func(a, b int) bool {
		if st.start[ops[a]] != st.start[ops[b]] {
			return st.start[ops[a]] < st.start[ops[b]]
		}
		return ops[a] < ops[b]
	})
	inMoving := make(map[cdfg.NodeID]bool, len(ops))
	for _, x := range ops {
		inMoving[x] = true
	}
	busy := append([]interval(nil), fixed...)
	type move struct {
		id  cdfg.NodeID
		old int
	}
	undo := make([]move, 0, len(ops))
	revert := func() {
		for k := len(undo) - 1; k >= 0; k-- {
			st.start[undo[k].id] = undo[k].old
		}
	}
	for _, x := range ops {
		d, p := st.delays[x], st.powers[x]
		lo := 0
		for _, pr := range st.g.Preds(x) {
			if e := st.start[pr] + st.delays[pr]; e > lo {
				lo = e
			}
		}
		hi := T
		for _, sc := range st.g.Succs(x) {
			// Successors that move too are re-placed after x (the start
			// order respects precedence), with a lower bound that already
			// covers this edge — they do not pin x's window.
			if inMoving[sc] {
				continue
			}
			if st.start[sc] < hi {
				hi = st.start[sc]
			}
		}
		if prof != nil {
			for c := st.start[x]; c < st.start[x]+d && c < len(prof); c++ {
				prof[c] -= p
			}
		}
		t, found := lo, false
	search:
		for t+d <= hi {
			for _, b := range busy {
				if b.s < t+d && t < b.e {
					t = b.e
					continue search
				}
			}
			if prof != nil {
				for c := t; c < t+d; c++ {
					if c >= len(prof) || prof[c]+p+st.baseAt(c) > st.cons.PowerMax+1e-9 {
						t = c + 1
						continue search
					}
				}
			}
			found = true
			break
		}
		if !found {
			revert()
			return nil, false
		}
		undo = append(undo, move{x, st.start[x]})
		st.start[x] = t
		busy = append(busy, interval{t, t + d})
		if prof != nil {
			for c := t; c < t+d && c < len(prof); c++ {
				prof[c] += p
			}
		}
	}
	return revert, true
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
// price of re-timing bystander operations; the full finish validation
// still gates acceptance. Same contract as packShift: prof is the
// caller's private, freely mutated copy of the committed power profile
// (nil without a cap); on success the moves are applied and the closure
// undoes them, on failure everything is already rolled back.
func (st *state) ripplePack(i, j int, prof []float64) (func(), bool) {
	T := st.cons.Deadline
	if st.topo == nil {
		topo, err := st.g.TopoOrder()
		if err != nil {
			return nil, false
		}
		st.topo = topo
	}
	moving := append(append([]cdfg.NodeID(nil), st.fus[i].ops...), st.fus[j].ops...)
	sort.Slice(moving, func(a, b int) bool {
		if st.start[moving[a]] != st.start[moving[b]] {
			return st.start[moving[a]] < st.start[moving[b]]
		}
		return moving[a] < moving[b]
	})
	type move struct {
		id  cdfg.NodeID
		old int
	}
	var undo []move
	revert := func() {
		for k := len(undo) - 1; k >= 0; k-- {
			st.start[undo[k].id] = undo[k].old
		}
	}
	// place moves x to the earliest busy- and power-free start in
	// [lo, T-delay], maintaining the profile and the undo log.
	place := func(x cdfg.NodeID, lo int, busy []interval) bool {
		d, p := st.delays[x], st.powers[x]
		if prof != nil {
			for c := st.start[x]; c < st.start[x]+d && c < len(prof); c++ {
				prof[c] -= p
			}
		}
		t, found := lo, false
	search:
		for t+d <= T {
			for _, b := range busy {
				if b.s < t+d && t < b.e {
					t = b.e
					continue search
				}
			}
			if prof != nil {
				for c := t; c < t+d; c++ {
					if c >= len(prof) || prof[c]+p+st.baseAt(c) > st.cons.PowerMax+1e-9 {
						t = c + 1
						continue search
					}
				}
			}
			found = true
			break
		}
		if !found {
			return false
		}
		undo = append(undo, move{x, st.start[x]})
		st.start[x] = t
		if prof != nil {
			for c := t; c < t+d && c < len(prof); c++ {
				prof[c] += p
			}
		}
		return true
	}
	// Phase 1: re-pack the union, earliest-fit after live predecessor
	// finishes, successors unconstrained (the sweep repairs them).
	busy := make([]interval, 0, len(moving))
	for _, x := range moving {
		lo := 0
		for _, pr := range st.g.Preds(x) {
			if e := st.start[pr] + st.delays[pr]; e > lo {
				lo = e
			}
		}
		if !place(x, lo, busy) {
			revert()
			return nil, false
		}
		busy = append(busy, interval{st.start[x], st.start[x] + st.delays[x]})
	}
	// Phase 2: right-shift repair sweep. Only precedence violations move;
	// every move lands on a free slot of the node's own instance (i and j
	// count as one), so instance exclusivity is preserved throughout.
	for _, v := range st.topo {
		lo := 0
		for _, pr := range st.g.Preds(v) {
			if e := st.start[pr] + st.delays[pr]; e > lo {
				lo = e
			}
		}
		if st.start[v] >= lo {
			continue
		}
		var group []cdfg.NodeID
		if f := st.fuOf[v]; f == i || f == j {
			group = moving
		} else {
			group = st.fus[f].ops
		}
		resv := make([]interval, 0, len(group))
		for _, o := range group {
			if o == v {
				continue
			}
			resv = append(resv, interval{st.start[o], st.start[o] + st.delays[o]})
		}
		if !place(v, lo, resv) {
			revert()
			return nil, false
		}
	}
	return revert, true
}
