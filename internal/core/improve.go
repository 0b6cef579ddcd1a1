package core

import (
	"fmt"
	"slices"

	"pchls/internal/cdfg"
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
// single-op descents meets the deadline.
func (st *state) refineInitialModules() error {
	probe := func() (int, bool) {
		st.stats.SchedulerRuns++
		s, err := sched.PASAP(st.g, st.baseBind, st.schedOpts())
		if err != nil {
			return 0, false
		}
		return s.Length(), true
	}
	length, ok := probe()
	if ok && length <= st.cons.Deadline {
		if !st.cfg.SkipAreaDescent {
			st.areaDescent()
		}
		return nil
	}
	if !ok {
		length = 1 << 30
	}
	maxRounds := st.g.N() * st.lib.Len()
	for round := 0; round < maxRounds; round++ {
		bestNode, bestModule, bestLen := -1, -1, length
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
				if l, ok := probe(); ok && l < bestLen {
					bestNode, bestModule, bestLen = i, mi, l
				}
				st.setModule(cdfg.NodeID(i), saved)
			}
		}
		if bestNode < 0 {
			break
		}
		st.setModule(cdfg.NodeID(bestNode), bestModule)
		length = bestLen
		if length <= st.cons.Deadline {
			if !st.cfg.SkipAreaDescent {
				st.areaDescent()
			}
			return nil
		}
	}
	return fmt.Errorf("core: pasap length %d exceeds T = %d for every initial module assignment tried: %w",
		length, st.cons.Deadline, ErrInfeasible)
}

// areaDescent refines the initial module assumptions toward smaller-area
// modules: any single operation is switched to a cheaper (power-feasible)
// module whenever the pasap probe still meets the deadline afterwards.
// Since datapath area is the synthesis objective and slower modules both
// cost less and draw less power, this orients the whole greedy search
// toward the cheap end of the operator trade-off; the per-candidate
// windows still let individual operations upgrade to fast modules where
// the schedule needs them.
func (st *state) areaDescent() {
	probe := func() bool {
		st.stats.SchedulerRuns++
		s, err := sched.PASAP(st.g, st.baseBind, st.schedOpts())
		return err == nil && s.Length() <= st.cons.Deadline
	}
	for changed := true; changed; {
		changed = false
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
				if probe() {
					bestMi = mi
				}
				st.setModule(cdfg.NodeID(i), saved)
			}
			if bestMi >= 0 {
				st.setModule(cdfg.NodeID(i), bestMi)
				changed = true
			}
		}
	}
}

// mergePass tries to merge functional-unit instances of the same module
// whose operations do not overlap in time, keeping a merge whenever it
// reduces the exact datapath area (functional units, registers and
// interconnect). It runs after all operations are committed.
func (st *state) mergePass() {
	area := func() (float64, bool) {
		d, err := st.finish()
		if err != nil {
			return 0, false
		}
		return d.Area(), true
	}
	cur, ok := area()
	if !ok {
		return
	}
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(st.fus); i++ {
			for j := i + 1; j < len(st.fus); j++ {
				if st.fus[i].module != st.fus[j].module {
					continue
				}
				if st.overlaps(i, j) {
					continue
				}
				li, lj := st.fus[i].line, st.fus[j].line
				m := st.mergeFUs(i, j, st.mergeLines(make([]cdfg.NodeID, 0, len(li)+len(lj)), li, lj))
				if a, ok := area(); ok && a < cur-1e-9 {
					cur = a
					changed = true
					j-- // instance j was removed; re-examine this index
				} else {
					st.unmerge(m)
				}
			}
		}
	}
}

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
// timeline becomes line, and deletes j, renumbering fuOf.
func (st *state) mergeFUs(i, j int, line []cdfg.NodeID) fuMerge {
	fi := &st.fus[i]
	m := fuMerge{i: i, j: j, module: fi.module, ops: len(fi.ops), line: fi.line, gone: st.fus[j]}
	fi.ops = append(fi.ops, st.fus[j].ops...)
	fi.line = line
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

// unmerge reverts the merge m, the last change to the instances. The
// appended ops stay behind i's ops in its backing array, where the next
// append overwrites them.
func (st *state) unmerge(m fuMerge) {
	fi := &st.fus[m.i]
	fi.module, fi.ops, fi.line = m.module, fi.ops[:m.ops], m.line
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
