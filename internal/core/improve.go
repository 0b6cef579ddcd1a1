package core

import (
	"fmt"

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
				saved := st.snapshotFUs()
				st.mergeFUs(i, j)
				if a, ok := area(); ok && a < cur-1e-9 {
					cur = a
					changed = true
					j-- // instance j was removed; re-examine this index
				} else {
					st.restoreFUs(saved)
				}
			}
		}
	}
}

// overlaps reports whether any operation of instance i overlaps one of j
// in time.
func (st *state) overlaps(i, j int) bool {
	for _, a := range st.fus[i].ops {
		for _, b := range st.fus[j].ops {
			if st.start[a] < st.start[b]+st.delays[b] && st.start[b] < st.start[a]+st.delays[a] {
				return true
			}
		}
	}
	return false
}

type fuSnapshot struct {
	fus  []instance
	fuOf []int
}

func (st *state) snapshotFUs() fuSnapshot {
	s := fuSnapshot{
		fus:  make([]instance, len(st.fus)),
		fuOf: append([]int(nil), st.fuOf...),
	}
	for i, f := range st.fus {
		s.fus[i] = instance{module: f.module, ops: append([]cdfg.NodeID(nil), f.ops...)}
	}
	return s
}

func (st *state) restoreFUs(s fuSnapshot) {
	st.fus = s.fus
	st.fuOf = s.fuOf
}

// mergeFUs moves all ops of instance j onto instance i and deletes j,
// renumbering fuOf.
func (st *state) mergeFUs(i, j int) {
	st.fus[i].ops = append(st.fus[i].ops, st.fus[j].ops...)
	st.fus = append(st.fus[:j], st.fus[j+1:]...)
	for n := range st.fuOf {
		switch {
		case st.fuOf[n] == j:
			st.fuOf[n] = i
		case st.fuOf[n] > j:
			st.fuOf[n]--
		}
	}
}
