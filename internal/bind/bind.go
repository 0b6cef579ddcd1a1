// Package bind constructs the datapath implied by a scheduled, allocated
// and bound data-flow graph: value lifetime analysis, left-edge register
// allocation, multiplexer sizing, and the area cost model combining
// functional units, registers and interconnect.
//
// The paper's objective is minimum area "using least interconnect"; the
// area coefficients for registers and multiplexer inputs are not published
// in the two-page paper, so CostModel exposes them with documented
// defaults chosen to keep interconnect secondary to functional-unit area
// (as in the original Table 1 scale).
package bind

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// CostModel holds the area coefficients of the datapath cost function.
type CostModel struct {
	// RegisterArea is the area of one storage register.
	RegisterArea float64
	// MuxInputArea is the area per multiplexer input beyond the first on
	// any functional-unit or register input port.
	MuxInputArea float64
}

// DefaultCostModel returns the coefficients used by the experiments:
// registers cost 12 area units and each extra multiplexer input 4 — small
// against the 87..339 functional units of Table 1, matching the paper's
// "least interconnect" secondary objective.
func DefaultCostModel() CostModel {
	return CostModel{RegisterArea: 12, MuxInputArea: 4}
}

// FU is one allocated functional-unit instance with the operations bound
// to it.
type FU struct {
	// Module is the library module of this instance.
	Module *library.Module
	// Ops are the operations sharing the instance, in ID order.
	Ops []cdfg.NodeID
}

// Lifetime is the register-relevant live interval of the value produced by
// a node: [Birth, LastUse] in cycles, inclusive. Birth is the producer's
// end cycle; LastUse is the latest consumer start cycle.
type Lifetime struct {
	Producer cdfg.NodeID
	Birth    int
	LastUse  int
}

// Overlaps reports whether two lifetimes cannot share a register.
func (a Lifetime) Overlaps(b Lifetime) bool {
	return a.Birth <= b.LastUse && b.Birth <= a.LastUse
}

// Lifetimes computes the live interval of every value that must be stored:
// one per node that has at least one consumer. Output nodes produce no
// storable value (they transfer off-chip).
func Lifetimes(g *cdfg.Graph, s *sched.Schedule) []Lifetime {
	return appendLifetimes(nil, g, s.Start, s.Delay)
}

// appendLifetimes appends the lifetimes of g's stored values, in node
// order, under the given starts and delays to dst.
func appendLifetimes(dst []Lifetime, g *cdfg.Graph, start, delay []int) []Lifetime {
	for i := range g.N() {
		n := g.Node(cdfg.NodeID(i))
		if n.Op == cdfg.Output {
			continue
		}
		succs := g.Succs(n.ID)
		if len(succs) == 0 {
			continue
		}
		last := 0
		for _, v := range succs {
			if start[v] > last {
				last = start[v]
			}
		}
		dst = append(dst, Lifetime{Producer: n.ID, Birth: start[i] + delay[i], LastUse: last})
	}
	return dst
}

// Register is one allocated register with the values (producer node IDs)
// stored in it over time.
type Register struct {
	Values []cdfg.NodeID
}

// LeftEdge allocates registers for the given lifetimes with the classical
// left-edge algorithm: intervals sorted by birth are packed greedily into
// the first register whose current occupant has expired. The number of
// registers returned equals the maximum number of simultaneously live
// values (optimal for interval graphs).
func LeftEdge(lifetimes []Lifetime) []Register {
	var p Pricer
	p.lts = append(p.lts, lifetimes...)
	slices.SortStableFunc(p.lts, func(a, b Lifetime) int { return cmp.Compare(a.Producer, b.Producer) })
	for k := range p.lts {
		p.ord = append(p.ord, int32(k))
	}
	p.leftEdge()
	return p.registers()
}

// MaxOverlap returns the maximum number of simultaneously live values —
// the lower bound on register count (clique number of the interval graph).
func MaxOverlap(lifetimes []Lifetime) int {
	best := 0
	for _, a := range lifetimes {
		n := 0
		for _, b := range lifetimes {
			if a.Birth >= b.Birth && a.Birth <= b.LastUse {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

// Datapath is the fully bound datapath: functional units, registers and
// multiplexer statistics, with its area breakdown.
type Datapath struct {
	FUs       []FU
	Registers []Register
	// FUMuxInputs is the total number of multiplexer inputs in front of
	// functional-unit operand ports (an FU port fed from k distinct
	// registers needs a k-input mux; k-1 inputs are counted as cost).
	FUMuxInputs int
	// RegMuxInputs is the analogous count for register write ports.
	RegMuxInputs int
	// Area breakdown.
	FUArea, RegArea, MuxArea float64
}

// TotalArea returns the complete datapath area.
func (d *Datapath) TotalArea() float64 { return d.FUArea + d.RegArea + d.MuxArea }

// ErrBinding indicates an inconsistent node-to-FU binding.
var ErrBinding = errors.New("inconsistent binding")

// Build assembles the datapath for a schedule and an FU binding. fuOf maps
// each node to an index into fus. It verifies that the binding is
// consistent: every node maps to an instance whose module implements its
// operation, and operations sharing an instance never overlap in time.
func Build(g *cdfg.Graph, s *sched.Schedule, fus []FU, fuOf []int, cm CostModel) (*Datapath, error) {
	if len(fuOf) != g.N() {
		return nil, fmt.Errorf("bind: fuOf has %d entries for %d nodes: %w", len(fuOf), g.N(), ErrBinding)
	}
	for i := range g.N() {
		n := g.Node(cdfg.NodeID(i))
		fi := fuOf[n.ID]
		if fi < 0 || fi >= len(fus) {
			return nil, fmt.Errorf("bind: node %q bound to FU %d of %d: %w", n.Name, fi, len(fus), ErrBinding)
		}
		if !fus[fi].Module.Implements(n.Op) {
			return nil, fmt.Errorf("bind: node %q (%s) bound to module %q: %w", n.Name, n.Op, fus[fi].Module.Name, ErrBinding)
		}
	}
	// No time overlap within an instance.
	for fi, fu := range fus {
		ops := append([]cdfg.NodeID(nil), fu.Ops...)
		sort.Slice(ops, func(i, j int) bool { return s.Start[ops[i]] < s.Start[ops[j]] })
		for k := 1; k < len(ops); k++ {
			prev, cur := ops[k-1], ops[k]
			if s.Start[cur] < s.End(prev) {
				return nil, fmt.Errorf("bind: FU %d (%s): ops %q and %q overlap in time: %w",
					fi, fu.Module.Name, g.Node(prev).Name, g.Node(cur).Name, ErrBinding)
			}
		}
		for _, op := range fu.Ops {
			if fuOf[op] != fi {
				return nil, fmt.Errorf("bind: FU %d lists op %q but fuOf disagrees: %w", fi, g.Node(op).Name, ErrBinding)
			}
		}
	}

	var p Pricer
	p.Registers(g, s.Start, s.Delay)
	d := &Datapath{FUs: fus, Registers: p.registers()}
	d.FUArea, d.FUMuxInputs, d.RegMuxInputs = p.count(g, len(fus), func(f int) (*library.Module, []cdfg.NodeID) {
		return fus[f].Module, fus[f].Ops
	}, fuOf)
	d.RegArea, d.MuxArea = cm.parts(len(d.Registers), d.FUMuxInputs+d.RegMuxInputs)
	return d, nil
}

// Report renders a human-readable datapath summary.
func (d *Datapath) Report(g *cdfg.Graph) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "functional units (%d):\n", len(d.FUs))
	for i, fu := range d.FUs {
		names := make([]string, len(fu.Ops))
		for j, op := range fu.Ops {
			names[j] = g.Node(op).Name
		}
		fmt.Fprintf(&sb, "  FU%-3d %-12s area %6.1f  ops: %s\n", i, fu.Module.Name, fu.Module.Area, strings.Join(names, " "))
	}
	fmt.Fprintf(&sb, "registers: %d, fu-mux inputs: %d, reg-mux inputs: %d\n",
		len(d.Registers), d.FUMuxInputs, d.RegMuxInputs)
	fmt.Fprintf(&sb, "area: FU %.1f + registers %.1f + interconnect %.1f = %.1f\n",
		d.FUArea, d.RegArea, d.MuxArea, d.TotalArea())
	return sb.String()
}
