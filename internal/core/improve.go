package core

import (
	"fmt"
	"slices"

	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// refineInitialModules establishes the initial per-operation module
// assumptions. It starts from the fastest power-feasible module everywhere
// (the most latency-optimistic uniform choice) and, when the pasap probe
// misses the deadline, greedily switches single operations to lower-power
// modules while that strictly shortens the power-constrained schedule —
// lower-power units relieve per-cycle congestion at the price of their own
// latency, which is exactly the operator speed/energy/area trade the paper
// explores. It returns ErrInfeasible when no assignment reachable by these
// single-op descents meets the deadline: with the shortest length reached,
// or with the scheduler's failure when no probe yielded a schedule at all.
//
// A probe only asks whether its schedule is shorter than the best one so
// far, so it stops as soon as a node ends at or past that length
// (descentProbe); the verdict is the full run's. A probe the precedence
// bound under that length refutes does not run (descentMeets): the bound
// is derived at the start of every round and whenever the best length
// falls.
func (st *state) refineInitialModules() error {
	length, err := st.descentProbe(0)
	if err == nil && length <= st.cons.Deadline {
		if !st.cfg.SkipAreaDescent {
			st.areaDescent()
		}
		return nil
	}
	if err != nil {
		length = 1 << 30 // no schedule yet: any probe that yields one improves
	}
	maxRounds := st.g.N() * st.lib.Len()
	for round := 0; round < maxRounds; round++ {
		bestNode, bestModule, bestLen := -1, -1, length
		st.deriveBounds(bestLen - 1)
		for i := 0; i < st.g.N(); i++ {
			cur := st.lib.Module(st.moduleOf[i])
			for _, mi := range st.lib.Candidates(st.g.Node(cdfg.NodeID(i)).Op) {
				alt := st.lib.Module(mi)
				if mi == st.moduleOf[i] || alt.Power >= cur.Power {
					continue
				}
				if st.cons.PowerMax > 0 && alt.Power > st.cons.PowerMax+1e-9 {
					continue
				}
				saved := st.moduleOf[i]
				st.setModule(cdfg.NodeID(i), mi)
				l, ok := st.descentMeets(refutedRefine, cdfg.NodeID(i), bestLen-1)
				st.setModule(cdfg.NodeID(i), saved)
				if ok {
					bestNode, bestModule, bestLen = i, mi, l
					st.deriveBounds(bestLen - 1)
				}
			}
		}
		if bestNode < 0 {
			break
		}
		st.setModule(cdfg.NodeID(bestNode), bestModule)
		length, err = bestLen, nil
		if length <= st.cons.Deadline {
			if !st.cfg.SkipAreaDescent {
				st.areaDescent()
			}
			return nil
		}
	}
	if err != nil {
		// No probe yielded a schedule, so the assignment is still the
		// initial one and err is its scheduler failure.
		return fmt.Errorf("core: no initial module assignment tried yields a pasap schedule: %w: %w", ErrInfeasible, err)
	}
	return fmt.Errorf("core: pasap length %d exceeds T = %d for every initial module assignment tried: %w",
		length, st.cons.Deadline, ErrInfeasible)
}

// descentProbe is the module descent's pasap probe under the current
// assumptions: it runs into the state's descent buffer, stopped once a
// node ends past bound (sched.Options.Stop; 0 runs in full), and returns
// the schedule's length, or the run's error — sched.ErrStopped when the
// length exceeds bound.
func (st *state) descentProbe(bound int) (int, error) {
	st.stats.SchedulerRuns++
	if st.descent == nil {
		st.descent = make([]int, st.g.N())
	}
	opts := st.schedOpts()
	opts.Stop = bound
	err := sched.PASAPStarts(st.g, st.baseBind, opts, st.descent)
	if descentProbed != nil {
		descentProbed(st, bound, err)
	}
	if err != nil {
		return 0, err
	}
	return length(st.descent, st.delays), nil
}

// descentMeets is one probe of the module descent, with node v just
// switched to the module it tries: whether the pasap probe of the current
// assumptions ends by bound (descentProbe), and the schedule's length.
// When the precedence bound in st.sdcB refutes v under its new delay
// (refutes), the probe does not run and fails; kind names the descent for
// the refuted hook.
func (st *state) descentMeets(kind refutation, v cdfg.NodeID, bound int) (int, bool) {
	if st.refutes(v, st.delays[v]) {
		if refuted != nil {
			refuted(st, kind, v, st.moduleOf[v], bound)
		}
		return 0, false
	}
	l, err := st.descentProbe(bound)
	return l, err == nil && l <= bound
}

// descentProbed, when set, is called with the state, the bound and the
// outcome of every descent probe. Test-only: the stopped-probe
// differential checks each verdict against a full run.
var descentProbed func(st *state, bound int, err error)

// areaDescent refines the initial module assumptions toward smaller-area
// modules: any single operation is switched to a cheaper (power-feasible)
// module whenever the pasap probe still meets the deadline afterwards.
// Since datapath area is the synthesis objective and slower modules both
// cost less and draw less power, this orients the whole greedy search
// toward the cheap end of the operator trade-off; the per-candidate
// windows still let individual operations upgrade to fast modules where
// the schedule needs them. The probes stop at the deadline, and a probe
// the precedence bound under the deadline refutes does not run
// (descentMeets). The bound is derived once per sweep and again after a
// change that shortens a delay; a bound stale only through lengthened
// delays is looser, so it still refutes soundly.
func (st *state) areaDescent() {
	for changed := true; changed; {
		changed = false
		st.deriveBounds(st.cons.Deadline)
		for i := 0; i < st.g.N(); i++ {
			if st.committed[cdfg.NodeID(i)] {
				continue
			}
			cur := st.lib.Module(st.moduleOf[i])
			bestMi := -1
			for _, mi := range st.lib.Candidates(st.g.Node(cdfg.NodeID(i)).Op) {
				alt := st.lib.Module(mi)
				if mi == st.moduleOf[i] || alt.Area >= cur.Area {
					continue
				}
				if st.cons.PowerMax > 0 && alt.Power > st.cons.PowerMax+1e-9 {
					continue
				}
				if bestMi >= 0 && alt.Area >= st.lib.Module(bestMi).Area {
					continue
				}
				saved := st.moduleOf[i]
				st.setModule(cdfg.NodeID(i), mi)
				if _, ok := st.descentMeets(refutedDescent, cdfg.NodeID(i), st.cons.Deadline); ok {
					bestMi = mi
				}
				st.setModule(cdfg.NodeID(i), saved)
			}
			if bestMi >= 0 {
				shorter := st.lib.Module(bestMi).Delay < st.delays[i]
				st.setModule(cdfg.NodeID(i), bestMi)
				changed = true
				if shorter {
					st.deriveBounds(st.cons.Deadline)
				}
			}
		}
	}
}

// mergePass tries to merge functional-unit instances of the same module
// whose operations do not overlap in time, keeping a merge whenever it
// reduces the exact datapath area (functional units, registers and
// interconnect). It runs after all operations are committed and reports
// whether anything merged. A merge moves no operation, so the pass prices
// the registers once, on its first trial, and each trial recounts only the
// multiplexers; a state whose instances offer no candidate pair is never
// priced at all.
func (st *state) mergePass() bool {
	entered, valid := false, false
	cur := 0.0
	return st.sweepPairs(func(i, j int) bool {
		if st.fus[i].module != st.fus[j].module || st.overlaps(i, j) {
			return false
		}
		if !entered {
			entered = true
			if valid = st.check() == nil; valid {
				cur = st.area(true)
			}
		}
		if !valid {
			return false
		}
		a, ok := st.tryMerge(i, j, cur)
		cur = a
		return ok
	})
}

// tryMerge merges instance j into i (same module, disjoint timelines) and
// keeps the merge when the area drops below cur, reusing the registers of
// the last area call; it returns the area of the resulting state and
// whether it merged.
func (st *state) tryMerge(i, j int, cur float64) (float64, bool) {
	li, lj := st.fus[i].line, st.fus[j].line
	m := st.mergeFUs(i, j, st.mergeLines(make([]cdfg.NodeID, 0, len(li)+len(lj)), li, lj))
	a := st.area(false)
	if priced != nil {
		priced(st, a)
	}
	if a < cur-1e-9 {
		return a, true
	}
	st.unmerge(m)
	return cur, false
}

// sweepPairs offers try the instance pairs (i, j), i < j, in lexicographic
// order, sweep after sweep, until a sweep merges nothing, and reports
// whether any try merged. A try that merges removes instance j, so the
// same index is offered again. A try is a pure function of the state, and
// every pair from a sweep's last merge on has failed against the state
// that merge left, so the next sweep stops when it reaches the position of
// that merge without having merged since.
func (st *state) sweepPairs(try func(i, j int) bool) bool {
	merged := false
	stopI, stopJ := -1, -1
	for {
		lastI, lastJ := -1, -1
		for i := 0; i < len(st.fus); i++ {
			for j := i + 1; j < len(st.fus); j++ {
				if lastI < 0 && stopI >= 0 && (i > stopI || i == stopI && j >= stopJ) {
					return merged
				}
				if try(i, j) {
					lastI, lastJ, merged = i, j, true
					j-- // instance j was removed; re-examine this index
				}
			}
		}
		if lastI < 0 {
			return merged
		}
		stopI, stopJ = lastI, lastJ
	}
}

// area returns the exact datapath area finish().Area() would report for
// the current state, bit for bit, without assembling a design. retimed
// reports whether starts or modules may have changed since the last call:
// if so the registers are re-allocated, otherwise that call's registers
// are reused and only the multiplexers are recounted.
func (st *state) area(retimed bool) float64 {
	if retimed {
		st.pricer.Registers(st.g, st.start, st.delays)
	}
	return st.pricer.Area(st.g, st.cm, len(st.fus), st.instanceAt, st.fuOf)
}

// instanceAt returns instance f's module and operations, for the pricer.
func (st *state) instanceAt(f int) (*library.Module, []cdfg.NodeID) {
	return st.lib.Module(st.fus[f].module), st.fus[f].ops
}

// check runs finish's validation on the state itself and returns an error
// exactly when finish would: the schedule (precedence, power cap,
// deadline), then the binding (every node on an instance whose module
// implements its operation, no two operations of an instance overlapping
// along its timeline, and each instance's operations bound to it), after
// the committed-state audit under Config.coldWindows.
func (st *state) check() error {
	if st.cfg.coldWindows {
		st.auditCommitted()
	}
	s := sched.Schedule{G: st.g, Start: st.start, Delay: st.delays, Power: st.powers}
	if err := s.Validate(st.cons.PowerMax, st.cons.Deadline); err != nil {
		return fmt.Errorf("core: internal error: final schedule invalid: %w", err)
	}
	for v, f := range st.fuOf {
		n := st.g.Node(cdfg.NodeID(v))
		if f < 0 || f >= len(st.fus) {
			return fmt.Errorf("core: internal error: node %q bound to instance %d of %d", n.Name, f, len(st.fus))
		}
		if m := st.lib.Module(st.fus[f].module); !m.Implements(n.Op) {
			return fmt.Errorf("core: internal error: node %q (%s) bound to module %q", n.Name, n.Op, m.Name)
		}
	}
	for f, fu := range st.fus {
		for k := 1; k < len(fu.line); k++ {
			if prev, x := fu.line[k-1], fu.line[k]; st.start[x] < st.start[prev]+st.delays[prev] {
				return fmt.Errorf("core: internal error: instance %d: ops %q and %q overlap in time",
					f, st.g.Node(prev).Name, st.g.Node(x).Name)
			}
		}
		for _, x := range fu.ops {
			if st.fuOf[x] != f {
				return fmt.Errorf("core: internal error: instance %d lists op %q but fuOf disagrees", f, st.g.Node(x).Name)
			}
		}
	}
	return nil
}

// priced, when set, is called with the state and its area at every merge
// trial of mergePass and shiftMergePass, before the trial is kept or
// undone. Test-only: the stitch pricing differential compares the area
// and check with finish.
var priced func(st *state, area float64)

// overlaps reports whether any operation of instance i overlaps one of j
// in time: one walk along both timelines, stepping past whichever current
// operation ends before the other starts.
func (st *state) overlaps(i, j int) bool {
	a, b := st.fus[i].line, st.fus[j].line
	for len(a) > 0 && len(b) > 0 {
		x, y := a[0], b[0]
		switch {
		case st.start[x]+st.delays[x] <= st.start[y]:
			a = a[1:]
		case st.start[y]+st.delays[y] <= st.start[x]:
			b = b[1:]
		default:
			return true
		}
	}
	return false
}

// fuMerge is what mergeFUs changed, for unmerge to put back: instance i's
// module, op count and timeline before the merge, and instance j.
type fuMerge struct {
	i, j, module, ops int
	line              []cdfg.NodeID
	gone              instance
}

// mergeFUs moves all ops of instance j onto instance i (i < j), whose
// timeline becomes line and whose producer summary absorbs j's, and
// deletes j, renumbering fuOf.
func (st *state) mergeFUs(i, j int, line []cdfg.NodeID) fuMerge {
	fi := &st.fus[i]
	m := fuMerge{i: i, j: j, module: fi.module, ops: len(fi.ops), line: fi.line, gone: st.fus[j]}
	fi.ops = append(fi.ops, st.fus[j].ops...)
	fi.line = line
	// Fold j's producer summary into i's, port by port.
	for k, q := range st.fus[j].producers {
		if p := fi.producers[k]; q != portUnseen && p != q {
			fi.producers[k] = q
			if p != portUnseen {
				fi.producers[k] = portMixed
			}
		}
	}
	st.fus = append(st.fus[:j], st.fus[j+1:]...)
	for n := range st.fuOf {
		switch {
		case st.fuOf[n] == j:
			st.fuOf[n] = i
		case st.fuOf[n] > j:
			st.fuOf[n]--
		}
	}
	return m
}

// unmerge reverts the merge m, the last change to the instances, and
// summarizes i's producers again. The appended ops stay behind i's ops in
// its backing array, where the next append overwrites them.
func (st *state) unmerge(m fuMerge) {
	fi := &st.fus[m.i]
	fi.module, fi.ops, fi.line = m.module, fi.ops[:m.ops], m.line
	st.summarize(m.i)
	st.fus = slices.Insert(st.fus, m.j, m.gone)
	for n := range st.fuOf {
		if st.fuOf[n] >= m.j {
			st.fuOf[n]++
		}
	}
	for _, x := range m.gone.ops {
		st.fuOf[x] = m.j
	}
}
