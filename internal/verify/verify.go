// Package verify is an independent validator for synthesis results: it
// re-derives every invariant the paper promises of a valid design —
// precedence, latency, per-cycle power, exclusive module occupancy,
// binding type-compatibility and area accounting — from first principles,
// sharing no code with the synthesis engine.
//
// Independence is the point: internal/core and internal/sched guard each
// optimisation with byte-identity against the previous implementation, so
// a bug both sides share passes silently. This package must therefore
// never import internal/core or internal/sched (an import-graph test
// enforces it); it depends only on the graph and library substrate, and
// every check is written as the naive direct translation of the paper's
// constraint — O(T x n) per-cycle power summation, O(k^2) pairwise
// occupancy checks — rather than the engine's incremental formulations.
//
// The package also contains a brute-force exhaustive reference
// synthesizer for tiny graphs (brute.go), used as a differential oracle
// against the heuristic.
package verify

import (
	"errors"
	"fmt"
	"math"

	"pchls/internal/cdfg"
	"pchls/internal/library"
)

// The invariant classes a design can violate. Check wraps every reported
// violation in exactly one of these, so tests (and the mutation
// self-test) can assert the precise failure class with errors.Is.
var (
	// ErrShape indicates the input is structurally malformed (mismatched
	// slice lengths, out-of-range instance indices, unknown module names,
	// a non-positive deadline or a non-finite power cap)
	// before any invariant can be evaluated.
	ErrShape = errors.New("verify: malformed design input")
	// ErrPrecedence indicates a data dependency is violated: a consumer
	// starts before its producer has finished, or a start time is
	// negative.
	ErrPrecedence = errors.New("verify: precedence violation")
	// ErrDeadline indicates the schedule makespan exceeds the latency
	// constraint T.
	ErrDeadline = errors.New("verify: latency constraint violated")
	// ErrPower indicates some cycle's summed power exceeds the per-cycle
	// constraint P<.
	ErrPower = errors.New("verify: per-cycle power constraint violated")
	// ErrOverlap indicates two operations bound to the same functional-
	// unit instance execute in overlapping cycles.
	ErrOverlap = errors.New("verify: overlapping operations on one instance")
	// ErrBinding indicates a type-compatibility violation: an operation
	// bound to a module that cannot execute it, or to an instance of a
	// different module than the schedule claims.
	ErrBinding = errors.New("verify: binding type incompatibility")
	// ErrArea indicates the reported functional-unit area does not equal
	// the sum of the allocated instances' module areas.
	ErrArea = errors.New("verify: area accounting mismatch")
	// ErrLevel indicates a voltage-assignment violation: a node claims an
	// operating point its module does not define, or two operations bound
	// to the same instance run at different operating points (an instance
	// is fixed at one supply voltage).
	ErrLevel = errors.New("verify: voltage-level violation")
)

// powerEps absorbs float rounding when comparing per-cycle power sums
// against the constraint; it matches the engine's comparison slack.
const powerEps = 1e-9

// areaEps bounds the acceptable rounding error in area accounting.
const areaEps = 1e-6

// Input is the engine-independent description of a synthesis result: the
// problem (graph, library, constraints) plus the claimed solution
// (per-node start cycles, module names and instance indices, the
// per-instance module names, and the reported functional-unit area).
// internal/core knows how to produce one from a Design (core.VerifyInput);
// this package never sees the Design type itself.
type Input struct {
	// Graph is the synthesized data-flow graph.
	Graph *cdfg.Graph
	// Library is the functional-unit library the design draws from.
	Library *library.Library
	// Deadline is the latency constraint T in cycles (> 0).
	Deadline int
	// PowerMax is the per-cycle power constraint P< (<= 0: unconstrained;
	// a non-finite cap is malformed).
	PowerMax float64
	// Start[v] is the first execution cycle of node v.
	Start []int
	// Module[v] names the library module executing node v.
	Module []string
	// Level[v] is the voltage operating-point index node v's module runs
	// at (library.Module.Level). Nil means every node runs at the nominal
	// point (level 0) — the pre-voltage-scaling design shape. When
	// non-nil, every delay/power invariant is checked against the chosen
	// level's values, and operations sharing an instance must agree on the
	// level (an instance is fixed at one supply voltage).
	Level []int
	// FU[v] is the functional-unit instance index node v is bound to.
	FU []int
	// FUModules[f] names the module of allocated instance f.
	FUModules []string
	// ReportedFUArea is the functional-unit area the design reports.
	ReportedFUArea float64
}

// Clone returns a deep copy of the input (sharing the graph and library,
// which are immutable to this package). The mutation self-test corrupts
// clones without touching the original.
func (in Input) Clone() Input {
	out := in
	out.Start = append([]int(nil), in.Start...)
	out.Module = append([]string(nil), in.Module...)
	out.Level = append([]int(nil), in.Level...)
	out.FU = append([]int(nil), in.FU...)
	out.FUModules = append([]string(nil), in.FUModules...)
	return out
}

// Check validates the design input against every invariant and returns
// all violations found, joined. A nil return means the design is a
// correct solution of its stated problem: precedence-respecting, within
// the deadline, within the per-cycle power cap, with exclusive instance
// occupancy, type-compatible bindings and exact area accounting.
func Check(in Input) error {
	if err := checkShape(in); err != nil {
		// Invariant checks index freely into the input; a malformed shape
		// would turn them into panics, so shape errors short-circuit.
		return err
	}
	return errors.Join(
		checkBinding(in),
		checkLevels(in),
		checkPrecedence(in),
		checkDeadline(in),
		checkPower(in),
		checkOverlap(in),
		checkArea(in),
	)
}

// checkShape verifies the input is self-consistent enough to index into.
func checkShape(in Input) error {
	var errs []error
	if in.Graph == nil || in.Library == nil {
		return fmt.Errorf("%w: nil graph or library", ErrShape)
	}
	n := in.Graph.N()
	if in.Deadline <= 0 {
		errs = append(errs, fmt.Errorf("%w: deadline %d is not positive", ErrShape, in.Deadline))
	}
	if math.IsNaN(in.PowerMax) || math.IsInf(in.PowerMax, 0) {
		errs = append(errs, fmt.Errorf("%w: power cap %g is not finite", ErrShape, in.PowerMax))
	}
	for name, l := range map[string]int{
		"Start":  len(in.Start),
		"Module": len(in.Module),
		"FU":     len(in.FU),
	} {
		if l != n {
			errs = append(errs, fmt.Errorf("%w: %s has %d entries for %d nodes", ErrShape, name, l, n))
		}
	}
	if in.Level != nil && len(in.Level) != n {
		errs = append(errs, fmt.Errorf("%w: Level has %d entries for %d nodes", ErrShape, len(in.Level), n))
	}
	if len(errs) > 0 {
		return errors.Join(errs...)
	}
	for v := 0; v < n; v++ {
		if m, ok := in.Library.Lookup(in.Module[v]); !ok {
			errs = append(errs, fmt.Errorf("%w: node %q names unknown module %q",
				ErrShape, in.Graph.Node(cdfg.NodeID(v)).Name, in.Module[v]))
		} else if in.Level != nil && (in.Level[v] < 0 || in.Level[v] >= m.NumLevels()) {
			// Reported as a shape error: the invariant checks below index
			// into the chosen level, so an out-of-range index would panic
			// them, exactly like an unknown module name.
			errs = append(errs, fmt.Errorf("%w: node %q claims level %d of module %q's %d: %w",
				ErrShape, in.Graph.Node(cdfg.NodeID(v)).Name, in.Level[v], in.Module[v], m.NumLevels(), ErrLevel))
		}
		if in.FU[v] < 0 || in.FU[v] >= len(in.FUModules) {
			errs = append(errs, fmt.Errorf("%w: node %q bound to instance %d of %d",
				ErrShape, in.Graph.Node(cdfg.NodeID(v)).Name, in.FU[v], len(in.FUModules)))
		}
	}
	for f, name := range in.FUModules {
		if _, ok := in.Library.Lookup(name); !ok {
			errs = append(errs, fmt.Errorf("%w: instance %d names unknown module %q", ErrShape, f, name))
		}
	}
	return errors.Join(errs...)
}

// levelOf returns the operating point node v runs at: the claimed level
// of its module, or the nominal point (level 0) when no level assignment
// is present. Shape has been checked, so neither lookup can fail.
func levelOf(in Input, v int) library.OperatingPoint {
	m, _ := in.Library.Lookup(in.Module[v])
	if in.Level == nil {
		return m.Level(0)
	}
	return m.Level(in.Level[v])
}

// delayOf returns the execution delay of node v under its claimed module
// at its claimed operating point.
func delayOf(in Input, v int) int {
	return levelOf(in, v).Delay
}

// checkBinding verifies type compatibility: every node's module
// implements its operation, and every node executes on an instance of
// exactly the module the schedule claims for it.
func checkBinding(in Input) error {
	var errs []error
	for _, node := range in.Graph.Nodes() {
		m, _ := in.Library.Lookup(in.Module[node.ID])
		if !m.Implements(node.Op) {
			errs = append(errs, fmt.Errorf("%w: node %q (%s) bound to module %q which cannot execute it",
				ErrBinding, node.Name, node.Op, m.Name))
		}
		if have := in.FUModules[in.FU[node.ID]]; have != in.Module[node.ID] {
			errs = append(errs, fmt.Errorf("%w: node %q scheduled on module %q but bound to instance %d of module %q",
				ErrBinding, node.Name, in.Module[node.ID], in.FU[node.ID], have))
		}
	}
	return errors.Join(errs...)
}

// checkLevels verifies per-instance voltage consistency: an instance is a
// physical unit supplied at one voltage, so every operation bound to it
// must claim the same operating-point index. With no level assignment
// every node is nominal and the check is vacuous.
func checkLevels(in Input) error {
	if in.Level == nil {
		return nil
	}
	var errs []error
	levelAt := make(map[int]int, len(in.FUModules))
	firstAt := make(map[int]int, len(in.FUModules))
	for v := range in.FU {
		f := in.FU[v]
		if lv, seen := levelAt[f]; !seen {
			levelAt[f] = in.Level[v]
			firstAt[f] = v
		} else if lv != in.Level[v] {
			errs = append(errs, fmt.Errorf("%w: instance %d runs %q at level %d and %q at level %d",
				ErrLevel, f,
				in.Graph.Node(cdfg.NodeID(firstAt[f])).Name, lv,
				in.Graph.Node(cdfg.NodeID(v)).Name, in.Level[v]))
		}
	}
	return errors.Join(errs...)
}

// checkPrecedence verifies every data dependency u -> v satisfies
// Start[v] >= Start[u] + delay(u), and that no start time is negative.
func checkPrecedence(in Input) error {
	var errs []error
	for _, node := range in.Graph.Nodes() {
		if in.Start[node.ID] < 0 {
			errs = append(errs, fmt.Errorf("%w: node %q starts at cycle %d", ErrPrecedence, node.Name, in.Start[node.ID]))
		}
		end := in.Start[node.ID] + delayOf(in, int(node.ID))
		for _, succ := range in.Graph.Succs(node.ID) {
			if in.Start[succ] < end {
				errs = append(errs, fmt.Errorf("%w: edge %q -> %q: consumer starts at cycle %d before producer finishes at cycle %d",
					ErrPrecedence, node.Name, in.Graph.Node(succ).Name, in.Start[succ], end))
			}
		}
	}
	return errors.Join(errs...)
}

// checkDeadline verifies the makespan — the first cycle after every
// operation has finished — is at most the deadline T.
func checkDeadline(in Input) error {
	makespan := 0
	for v := range in.Start {
		if end := in.Start[v] + delayOf(in, v); end > makespan {
			makespan = end
		}
	}
	if makespan > in.Deadline {
		return fmt.Errorf("%w: makespan %d exceeds T = %d", ErrDeadline, makespan, in.Deadline)
	}
	return nil
}

// checkPower verifies the per-cycle power constraint by the naive
// definition: for every cycle, sum the power of every operation executing
// in that cycle and compare against P<. Deliberately O(cycles x nodes) —
// no profile accumulation shared with the engine.
func checkPower(in Input) error {
	if in.PowerMax <= 0 {
		return nil
	}
	last := 0
	for v := range in.Start {
		if end := in.Start[v] + delayOf(in, v); end > last {
			last = end
		}
	}
	var errs []error
	for cycle := 0; cycle < last; cycle++ {
		total := 0.0
		for v := range in.Start {
			if in.Start[v] <= cycle && cycle < in.Start[v]+delayOf(in, v) {
				total += levelOf(in, v).Power
			}
		}
		if total > in.PowerMax+powerEps {
			errs = append(errs, fmt.Errorf("%w: cycle %d draws %.6g > P< = %.6g", ErrPower, cycle, total, in.PowerMax))
		}
	}
	return errors.Join(errs...)
}

// checkOverlap verifies exclusive instance occupancy by the naive
// pairwise rule: two operations bound to the same instance must have
// disjoint execution intervals.
func checkOverlap(in Input) error {
	var errs []error
	n := in.Graph.N()
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if in.FU[a] != in.FU[b] {
				continue
			}
			aEnd := in.Start[a] + delayOf(in, a)
			bEnd := in.Start[b] + delayOf(in, b)
			if in.Start[a] < bEnd && in.Start[b] < aEnd {
				errs = append(errs, fmt.Errorf("%w: instance %d executes %q (cycles %d-%d) and %q (cycles %d-%d) concurrently",
					ErrOverlap, in.FU[a],
					in.Graph.Node(cdfg.NodeID(a)).Name, in.Start[a], aEnd-1,
					in.Graph.Node(cdfg.NodeID(b)).Name, in.Start[b], bEnd-1))
			}
		}
	}
	return errors.Join(errs...)
}

// checkArea verifies the reported functional-unit area equals the sum of
// the allocated instances' module areas, and that every allocated
// instance is actually used by at least one operation (an unused
// instance would inflate the area for nothing — the engine never emits
// one, so the validator treats it as an accounting error).
func checkArea(in Input) error {
	var errs []error
	sum := 0.0
	used := make([]bool, len(in.FUModules))
	for _, v := range in.FU {
		used[v] = true
	}
	for f, name := range in.FUModules {
		m, _ := in.Library.Lookup(name)
		sum += m.Area
		if !used[f] {
			errs = append(errs, fmt.Errorf("%w: instance %d (%s) has no operations bound to it", ErrArea, f, name))
		}
	}
	if diff := sum - in.ReportedFUArea; diff > areaEps || diff < -areaEps {
		errs = append(errs, fmt.Errorf("%w: reported FU area %.6g but allocated instances sum to %.6g", ErrArea, in.ReportedFUArea, sum))
	}
	return errors.Join(errs...)
}
