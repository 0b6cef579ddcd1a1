package core

import (
	"errors"
	"fmt"
	"math"

	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// ErrTooLarge is returned by ExactSynthesize when the search budget is
// exhausted before the space is covered.
var ErrTooLarge = errors.New("instance too large for exact synthesis")

// ExactResult is the optimum found by ExactSynthesize.
type ExactResult struct {
	// FUArea is the minimal total functional-unit area.
	FUArea float64
	// Start, Module and FU describe one optimal solution.
	Start  []int
	Module []int // library module index per node
	FU     []int // instance index per node
	// Expansions counts search-tree nodes, for reporting.
	Expansions int
}

// ExactSynthesize finds the minimum functional-unit area over ALL
// combinations of module selection, power/latency-feasible schedule and
// binding, by exhaustive branch-and-bound — the joint problem the paper's
// greedy approximates. It is exponential and intended for graphs of up to
// roughly ten operations (the test oracle for the greedy's optimality
// gap); maxExpansions bounds the search (<= 0 means 4e6).
//
// The objective is functional-unit area only: registers and multiplexers
// are secondary in the paper's cost function and depend on binding details
// the exact search does not model.
func ExactSynthesize(g *cdfg.Graph, lib *library.Library, cons Constraints, maxExpansions int) (*ExactResult, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if cons.Deadline <= 0 {
		return nil, fmt.Errorf("core: exact: deadline %d must be positive", cons.Deadline)
	}
	if math.IsNaN(cons.PowerMax) || math.IsInf(cons.PowerMax, 0) {
		return nil, fmt.Errorf("core: exact: power cap %g must be finite", cons.PowerMax)
	}
	if missing := lib.Covers(g); missing != nil {
		return nil, fmt.Errorf("core: exact: operations %v: %w", missing, ErrUncovered)
	}
	if maxExpansions <= 0 {
		maxExpansions = 4_000_000
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := g.N()
	T := cons.Deadline

	// An incumbent from the greedy bounds the search from above.
	incumbent := 1e18
	var best *ExactResult
	if d, err := Synthesize(g, lib, cons, Config{}); err == nil {
		incumbent = d.Datapath.FUArea + 1e-9 // accept strictly better only
	}

	type inst struct {
		module int
		// busy intervals, maintained as parallel slices for cheap undo.
		starts, ends []int
	}
	var (
		instances  []inst
		start      = make([]int, n)
		moduleOf   = make([]int, n)
		fuOf       = make([]int, n)
		profile    = make([]float64, T)
		fuArea     float64
		expansions int
	)

	// cheapestArea[op] = min module area implementing op (admissible
	// remaining-cost heuristic assuming perfect sharing costs zero extra).
	cheapest := make(map[cdfg.Op]float64)
	for _, node := range g.Nodes() {
		if _, ok := cheapest[node.Op]; !ok {
			m, err := lib.Smallest(node.Op)
			if err != nil {
				return nil, err
			}
			cheapest[node.Op] = m.Area
		}
	}

	overBudget := false
	var rec func(k int)
	rec = func(k int) {
		expansions++
		if expansions > maxExpansions {
			overBudget = true
			return
		}
		if fuArea >= incumbent {
			return
		}
		if k == n {
			incumbent = fuArea
			best = &ExactResult{
				FUArea: fuArea,
				Start:  append([]int(nil), start...),
				Module: append([]int(nil), moduleOf...),
				FU:     append([]int(nil), fuOf...),
			}
			return
		}
		v := order[k]
		node := g.Node(v)
		earliest := 0
		for _, p := range g.Preds(v) {
			m := lib.Module(moduleOf[p])
			if e := start[p] + m.Delay; e > earliest {
				earliest = e
			}
		}
		for _, mi := range lib.Candidates(node.Op) {
			m := lib.Module(mi)
			if cons.PowerMax > 0 && m.Power > cons.PowerMax+1e-9 {
				continue
			}
			moduleOf[v] = mi
			for t := earliest; t+m.Delay <= T; t++ {
				if overBudget {
					return
				}
				// Power feasibility of this placement.
				ok := true
				if cons.PowerMax > 0 {
					for c := t; c < t+m.Delay; c++ {
						if profile[c]+m.Power > cons.PowerMax+1e-9 {
							ok = false
							break
						}
					}
				}
				if !ok {
					continue
				}
				start[v] = t
				for c := t; c < t+m.Delay; c++ {
					profile[c] += m.Power
				}
				// Existing instances of the same module with a free slot.
				for fi := range instances {
					if instances[fi].module != mi {
						continue
					}
					clash := false
					for bi := range instances[fi].starts {
						if t < instances[fi].ends[bi] && instances[fi].starts[bi] < t+m.Delay {
							clash = true
							break
						}
					}
					if clash {
						continue
					}
					instances[fi].starts = append(instances[fi].starts, t)
					instances[fi].ends = append(instances[fi].ends, t+m.Delay)
					fuOf[v] = fi
					rec(k + 1)
					instances[fi].starts = instances[fi].starts[:len(instances[fi].starts)-1]
					instances[fi].ends = instances[fi].ends[:len(instances[fi].ends)-1]
				}
				// A fresh instance.
				if fuArea+m.Area < incumbent {
					instances = append(instances, inst{module: mi, starts: []int{t}, ends: []int{t + m.Delay}})
					fuOf[v] = len(instances) - 1
					fuArea += m.Area
					rec(k + 1)
					fuArea -= m.Area
					instances = instances[:len(instances)-1]
				}
				for c := t; c < t+m.Delay; c++ {
					profile[c] -= m.Power
				}
			}
		}
	}
	rec(0)
	if overBudget && best == nil {
		return nil, fmt.Errorf("core: exact: %w (budget %d)", ErrTooLarge, maxExpansions)
	}
	if best == nil {
		// The greedy incumbent was already optimal (or the instance is
		// infeasible). Distinguish by re-running the greedy.
		d, err := Synthesize(g, lib, cons, Config{})
		if err != nil {
			return nil, fmt.Errorf("core: exact: %w", ErrInfeasible)
		}
		res := &ExactResult{FUArea: d.Datapath.FUArea, Expansions: expansions}
		res.Start = append([]int(nil), d.Schedule.Start...)
		res.FU = append([]int(nil), d.FUOf...)
		res.Module = make([]int, n)
		for i := range res.Module {
			for _, mi := range lib.Candidates(g.Node(cdfg.NodeID(i)).Op) {
				if lib.Module(mi).Name == d.Schedule.Module[i] {
					res.Module[i] = mi
				}
			}
		}
		if overBudget {
			return res, fmt.Errorf("core: exact: %w (budget %d); returning greedy incumbent", ErrTooLarge, maxExpansions)
		}
		return res, nil
	}
	best.Expansions = expansions
	if overBudget {
		return best, fmt.Errorf("core: exact: %w (budget %d); returning best found", ErrTooLarge, maxExpansions)
	}
	return best, nil
}

// Validate checks an exact result against the constraints.
func (r *ExactResult) Validate(g *cdfg.Graph, lib *library.Library, cons Constraints) error {
	s := &sched.Schedule{
		G:      g,
		Start:  r.Start,
		Delay:  make([]int, g.N()),
		Power:  make([]float64, g.N()),
		Module: make([]string, g.N()),
	}
	for i, mi := range r.Module {
		m := lib.Module(mi)
		s.Delay[i] = m.Delay
		s.Power[i] = m.Power
		s.Module[i] = m.Name
	}
	if err := s.Validate(cons.PowerMax, cons.Deadline); err != nil {
		return err
	}
	// Instance exclusivity.
	byFU := map[int][]cdfg.NodeID{}
	for i, f := range r.FU {
		byFU[f] = append(byFU[f], cdfg.NodeID(i))
	}
	for f, ops := range byFU {
		for i := 0; i < len(ops); i++ {
			for j := i + 1; j < len(ops); j++ {
				a, b := ops[i], ops[j]
				if r.Module[a] != r.Module[b] {
					return fmt.Errorf("core: exact: instance %d mixes modules", f)
				}
				if s.Start[a] < s.End(b) && s.Start[b] < s.End(a) {
					return fmt.Errorf("core: exact: instance %d ops overlap", f)
				}
			}
		}
	}
	return nil
}
