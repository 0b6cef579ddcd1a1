// Package sched implements the scheduling machinery of the power-constrained
// high-level synthesis flow: classical ASAP/ALAP, the power-constrained
// pasap/palap heuristics of Nielsen & Madsen (DATE 2003), mobility windows,
// per-cycle power profiles, schedule validation, and the baseline
// schedulers the ablation benchmarks run (a two-step force-directed
// schedule-then-power-repair baseline and simulated annealing).
//
// Time is measured in integer clock cycles. An operation with start time t
// and delay d occupies cycles t, t+1, ..., t+d-1; a data successor may start
// at cycle t+d or later. Power is the sum, per cycle, of the per-cycle power
// of every operation executing in that cycle.
package sched

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"pchls/internal/cdfg"
	"pchls/internal/library"
)

// Binding chooses the functional-unit module that will execute a node; it
// determines the node's delay and per-cycle power during scheduling. The
// synthesizer refines bindings as it commits decisions; standalone
// schedulers typically use a uniform policy such as UniformFastest.
type Binding func(cdfg.Node) *library.Module

// UniformFastest returns a Binding that picks the minimum-delay module for
// every node (ties broken by area). It panics only if the library does not
// cover an operation — callers should check Library.Covers first.
func UniformFastest(lib *library.Library) Binding {
	return func(n cdfg.Node) *library.Module {
		m, err := lib.Fastest(n.Op)
		if err != nil {
			panic(fmt.Sprintf("sched: uncovered operation %s: %v", n.Op, err))
		}
		return m
	}
}

// UniformSmallest returns a Binding picking the minimum-area module per node.
func UniformSmallest(lib *library.Library) Binding {
	return func(n cdfg.Node) *library.Module {
		m, err := lib.Smallest(n.Op)
		if err != nil {
			panic(fmt.Sprintf("sched: uncovered operation %s: %v", n.Op, err))
		}
		return m
	}
}

// UniformLowestPower returns a Binding picking the minimum-power module per
// node.
func UniformLowestPower(lib *library.Library) Binding {
	return func(n cdfg.Node) *library.Module {
		m, err := lib.LowestPower(n.Op)
		if err != nil {
			panic(fmt.Sprintf("sched: uncovered operation %s: %v", n.Op, err))
		}
		return m
	}
}

// Schedule records start times for every node of a graph together with the
// delay and power implied by the binding used to produce it.
type Schedule struct {
	// G is the scheduled graph.
	G *cdfg.Graph
	// Start[i] is the first execution cycle of node i.
	Start []int
	// Delay[i] is the execution latency in cycles of node i.
	Delay []int
	// Power[i] is the per-cycle power of node i while it executes.
	Power []float64
	// Module[i] names the module chosen for node i (diagnostic).
	Module []string
}

// newSchedule allocates a schedule shell for g under the given binding.
func newSchedule(g *cdfg.Graph, bind Binding) *Schedule {
	n := g.N()
	s := &Schedule{
		G:      g,
		Start:  make([]int, n),
		Delay:  make([]int, n),
		Power:  make([]float64, n),
		Module: make([]string, n),
	}
	for i := range n {
		node := g.Node(cdfg.NodeID(i))
		m := bind(node)
		s.Delay[node.ID] = m.Delay
		s.Power[node.ID] = m.Power
		s.Module[node.ID] = m.Name
	}
	return s
}

// newScheduleOpts allocates a schedule shell honoring the precomputed
// Delays/Powers tables when both are set: the shell aliases the two tables
// (the caller keeps them stable while the schedule is read) and leaves
// Module nil, skipping the n Binding calls of newSchedule. This is the
// synthesizer's hot path; diagnostic rendering uses the classic shell.
func newScheduleOpts(g *cdfg.Graph, bind Binding, opts *Options) *Schedule {
	if opts.Delays == nil || opts.Powers == nil {
		return newSchedule(g, bind)
	}
	return &Schedule{
		G:     g,
		Start: make([]int, g.N()),
		Delay: opts.Delays,
		Power: opts.Powers,
	}
}

// End returns the first cycle after node i finishes (Start[i] + Delay[i]).
func (s *Schedule) End(i cdfg.NodeID) int { return s.Start[i] + s.Delay[i] }

// Length returns the schedule makespan: the first cycle after every node
// has finished. An empty schedule has length 0.
func (s *Schedule) Length() int {
	l := 0
	for i := range s.Start {
		if e := s.Start[i] + s.Delay[i]; e > l {
			l = e
		}
	}
	return l
}

// Profile returns the per-cycle power profile over [0, Length()).
func (s *Schedule) Profile() []float64 {
	p := make([]float64, s.Length())
	for i := range s.Start {
		for c := s.Start[i]; c < s.Start[i]+s.Delay[i]; c++ {
			p[c] += s.Power[i]
		}
	}
	return p
}

// PeakPower returns the maximum per-cycle power of the schedule.
func (s *Schedule) PeakPower() float64 {
	peak := 0.0
	for _, p := range s.Profile() {
		if p > peak {
			peak = p
		}
	}
	return peak
}

// Energy returns the total energy of the schedule (sum of the profile; equal
// to the sum over nodes of power x delay).
func (s *Schedule) Energy() float64 {
	e := 0.0
	for i := range s.Start {
		e += s.Power[i] * float64(s.Delay[i])
	}
	return e
}

// Validation errors.
var (
	// ErrPrecedence indicates a data dependency is violated.
	ErrPrecedence = errors.New("precedence violation")
	// ErrPowerCap indicates a cycle exceeds the power constraint.
	ErrPowerCap = errors.New("per-cycle power exceeds constraint")
	// ErrDeadline indicates the schedule (or any feasible schedule) exceeds
	// the latency constraint.
	ErrDeadline = errors.New("latency constraint violated")
	// ErrPowerInfeasible indicates a single operation's power alone exceeds
	// the power constraint, so no schedule can exist.
	ErrPowerInfeasible = errors.New("operation power exceeds power constraint")
	// ErrHorizon indicates an operation could not be placed within the
	// scheduling horizon (with an explicit horizon this typically means the
	// deadline cannot be met).
	ErrHorizon = errors.New("operation cannot be placed within horizon")
	// ErrStopped indicates a pasap run ended early because a placed
	// operation ends past Options.Stop: the run's length exceeds the bound.
	ErrStopped = errors.New("pasap run stopped past its length bound")
)

// Validate checks the schedule: every start time is non-negative, every data
// dependency u -> v satisfies Start[v] >= Start[u] + Delay[u], no cycle
// exceeds powerMax (ignored when powerMax <= 0), and the makespan is at most
// deadline (ignored when deadline <= 0). All violations are joined.
func (s *Schedule) Validate(powerMax float64, deadline int) error {
	var errs []error
	for i := range s.G.N() {
		n := s.G.Node(cdfg.NodeID(i))
		if s.Start[n.ID] < 0 {
			errs = append(errs, fmt.Errorf("sched: node %q starts at %d: %w", n.Name, s.Start[n.ID], ErrPrecedence))
		}
		for _, v := range s.G.Succs(n.ID) {
			if s.Start[v] < s.End(n.ID) {
				errs = append(errs, fmt.Errorf("sched: edge %q -> %q: consumer starts at %d before producer ends at %d: %w",
					n.Name, s.G.Node(v).Name, s.Start[v], s.End(n.ID), ErrPrecedence))
			}
		}
	}
	if powerMax > 0 {
		for c, p := range s.Profile() {
			if p > powerMax+1e-9 {
				errs = append(errs, fmt.Errorf("sched: cycle %d draws %.3g > %.3g: %w", c, p, powerMax, ErrPowerCap))
			}
		}
	}
	if deadline > 0 && s.Length() > deadline {
		errs = append(errs, fmt.Errorf("sched: makespan %d > deadline %d: %w", s.Length(), deadline, ErrDeadline))
	}
	return errors.Join(errs...)
}

// Clone returns a deep copy of the schedule (sharing the graph).
func (s *Schedule) Clone() *Schedule {
	return &Schedule{
		G:      s.G,
		Start:  append([]int(nil), s.Start...),
		Delay:  append([]int(nil), s.Delay...),
		Power:  append([]float64(nil), s.Power...),
		Module: append([]string(nil), s.Module...),
	}
}

// Table renders the schedule as an aligned text table sorted by start time
// (ties by node ID), for reports and CLI output.
func (s *Schedule) Table() string {
	ids := make([]cdfg.NodeID, s.G.N())
	for i := range ids {
		ids[i] = cdfg.NodeID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		if s.Start[ids[a]] != s.Start[ids[b]] {
			return s.Start[ids[a]] < s.Start[ids[b]]
		}
		return ids[a] < ids[b]
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-5s %-12s %6s %6s %7s\n", "node", "op", "module", "start", "end", "power")
	for _, id := range ids {
		n := s.G.Node(id)
		fmt.Fprintf(&sb, "%-10s %-5s %-12s %6d %6d %7.2f\n", n.Name, n.Op, s.Module[id], s.Start[id], s.End(id)-1, s.Power[id])
	}
	fmt.Fprintf(&sb, "makespan %d cycles, peak power %.2f, energy %.2f\n", s.Length(), s.PeakPower(), s.Energy())
	return sb.String()
}

// ProfileString renders the power profile as a small ASCII bar chart, one
// line per cycle, with an optional cap marker.
func (s *Schedule) ProfileString(powerMax float64) string {
	prof := s.Profile()
	maxP := powerMax
	for _, p := range prof {
		if p > maxP {
			maxP = p
		}
	}
	if maxP <= 0 {
		maxP = 1
	}
	const width = 50
	var sb strings.Builder
	for c, p := range prof {
		bar := int(math.Round(p / maxP * width))
		marker := ""
		if powerMax > 0 && p > powerMax+1e-9 {
			marker = " <-- exceeds P<"
		}
		fmt.Fprintf(&sb, "cycle %3d |%-*s| %6.2f%s\n", c, width, strings.Repeat("#", bar), p, marker)
	}
	if powerMax > 0 {
		fmt.Fprintf(&sb, "P< = %.2f\n", powerMax)
	}
	return sb.String()
}

// MinResources returns, for a schedule, the number of simultaneously active
// instances required of each module — i.e. the allocation the schedule
// implies if every concurrent operation needs its own instance.
func MinResources(s *Schedule) map[string]int {
	need := make(map[string]int)
	length := s.Length()
	for c := 0; c < length; c++ {
		active := make(map[string]int)
		for i := range s.Start {
			if s.Start[i] <= c && c < s.Start[i]+s.Delay[i] {
				active[s.Module[i]]++
			}
		}
		for name, k := range active {
			if k > need[name] {
				need[name] = k
			}
		}
	}
	return need
}
