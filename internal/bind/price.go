package bind

import (
	"cmp"
	mathbits "math/bits"
	"slices"

	"pchls/internal/cdfg"
	"pchls/internal/library"
)

// Pricer evaluates the datapath cost function — functional units, left-edge
// registers and multiplexer inputs — over buffers it keeps across calls.
// Build assembles every datapath through one; a caller that prices many
// variants of one design (an instance-merge search) keeps its own, runs
// Registers whenever the schedule changes and Area after every binding
// change, and gets bit for bit the total Build would report, without
// assembling a Datapath. The zero value is ready to use and allocates
// nothing until its first Registers call.
type Pricer struct {
	g       *cdfg.Graph   // the graph of the last Registers call
	lts     []Lifetime    // the stored values, in ascending producer order
	ord     []int32       // indices into lts in left-edge order: by birth, then producer
	reg     []int         // reg[k]: the register of lts[k]
	regLast []int         // per register: the last cycle it is occupied through
	busy    []occupied    // the occupied registers, a binary min-heap by last
	free    []uint64      // bitset of the registers whose occupant has expired
	first   []int         // register r's values are byReg[first[r]:first[r+1]]
	byReg   []cdfg.NodeID // the values grouped by register, each group in left-edge order
	regOf   []int         // per node: the register of its value, -1 when it is not stored
	mark    []int         // distinct-count stamps, indexed by register or by instance
	stamp   int
}

// Registers runs the lifetime analysis and left-edge register allocation
// of g under the given starts and delays, and returns the register count.
func (p *Pricer) Registers(g *cdfg.Graph, start, delay []int) int {
	p.lts = appendLifetimes(p.lts[:0], g, start, delay)
	if p.g != g || len(p.ord) != len(p.lts) {
		// A new value set; on the same graph the set is fixed, and the
		// last call's order is a nearly sorted start for this one.
		p.g = g
		p.ord = p.ord[:0]
		for k := range p.lts {
			p.ord = append(p.ord, int32(k))
		}
	}
	p.leftEdge()
	p.regOf = slices.Grow(p.regOf[:0], g.N())[:g.N()]
	for i := range p.regOf {
		p.regOf[i] = -1
	}
	for k, lt := range p.lts {
		p.regOf[lt.Producer] = p.reg[k]
	}
	return len(p.regLast)
}

// Area returns the total area of n functional-unit instances over the
// registers of the last Registers call: inst(f) gives instance f's module
// and operations, fuOf each node's instance.
func (p *Pricer) Area(g *cdfg.Graph, cm CostModel, n int, inst func(f int) (*library.Module, []cdfg.NodeID), fuOf []int) float64 {
	fuArea, fuMux, regMux := p.count(g, n, inst, fuOf)
	reg, mux := cm.parts(len(p.regLast), fuMux+regMux)
	return fuArea + reg + mux
}

// parts returns the register and interconnect area of regs registers and
// muxInputs multiplexer inputs. A datapath's total area is its
// functional-unit area plus both, summed in that order.
func (cm CostModel) parts(regs, muxInputs int) (reg, mux float64) {
	return float64(regs) * cm.RegisterArea, float64(muxInputs) * cm.MuxInputArea
}

// leftEdge sorts ord into left-edge order and packs each value, in that
// order, into the first register whose current occupant has expired, then
// groups the values by register. lts must be in ascending producer order,
// so an index breaks a birth tie as the producer does. Births ascend along
// ord, so a register whose occupant expired stays free until it is
// reused: the busy heap hands each one to the free set once, and the first
// free register is the lowest set bit.
func (p *Pricer) leftEdge() {
	slices.SortFunc(p.ord, func(a, b int32) int {
		return cmp.Or(cmp.Compare(p.lts[a].Birth, p.lts[b].Birth), cmp.Compare(a, b))
	})
	p.reg = slices.Grow(p.reg[:0], len(p.lts))[:len(p.lts)]
	p.regLast, p.busy, p.free = p.regLast[:0], p.busy[:0], p.free[:0]
	for _, k := range p.ord {
		lt := p.lts[k]
		for len(p.busy) > 0 && p.busy[0].last < lt.Birth {
			r := p.popBusy()
			p.free[r/64] |= 1 << (r % 64)
		}
		r := len(p.regLast)
		for w, bits := range p.free {
			if bits != 0 {
				r = w*64 + mathbits.TrailingZeros64(bits)
				p.free[w] &^= 1 << (r % 64)
				break
			}
		}
		if r == len(p.regLast) {
			p.regLast = append(p.regLast, 0)
			if r%64 == 0 {
				p.free = append(p.free, 0)
			}
		}
		p.regLast[r] = lt.LastUse
		p.pushBusy(occupied{lt.LastUse, r})
		p.reg[k] = r
	}
	// Counting sort by register, stable in left-edge order: first[r+1]
	// counts register r's values, the prefix sums turn the counts into
	// group starts, and the fill advances first[r] to the end of group r,
	// which the final shift turns back into starts.
	nr := len(p.regLast)
	p.first = append(p.first[:0], make([]int, nr+1)...)
	for _, r := range p.reg {
		p.first[r+1]++
	}
	for r := 1; r <= nr; r++ {
		p.first[r] += p.first[r-1]
	}
	p.byReg = slices.Grow(p.byReg[:0], len(p.lts))[:len(p.lts)]
	for _, k := range p.ord {
		r := p.reg[k]
		p.byReg[p.first[r]] = p.lts[k].Producer
		p.first[r]++
	}
	copy(p.first[1:], p.first[:nr])
	p.first[0] = 0
}

// occupied is a busy-heap entry: register r is occupied through cycle last.
type occupied struct{ last, r int }

// pushBusy adds e to the busy heap.
func (p *Pricer) pushBusy(e occupied) {
	h := append(p.busy, e)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].last <= h[i].last {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	p.busy = h
}

// popBusy removes the busy entry with the smallest last and returns its
// register.
func (p *Pricer) popBusy() int {
	h := p.busy
	top, n := h[0].r, len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].last < h[c].last {
			c++
		}
		if h[i].last <= h[c].last {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	p.busy = h
	return top
}

// registers returns the allocation of the last leftEdge as Registers.
func (p *Pricer) registers() []Register {
	var regs []Register
	for r := range p.regLast {
		regs = append(regs, Register{Values: slices.Clone(p.byReg[p.first[r]:p.first[r+1]])})
	}
	return regs
}

// count returns the functional-unit area of n instances (summed in
// instance order) and their multiplexer inputs over the registers of the
// last Registers call. An operand port of an instance fed from k distinct
// registers across its operations needs k-1 inputs beyond the first;
// likewise a register written by k distinct instances.
func (p *Pricer) count(g *cdfg.Graph, n int, inst func(f int) (*library.Module, []cdfg.NodeID), fuOf []int) (fuArea float64, fuMux, regMux int) {
	if need := max(len(p.regLast), n); len(p.mark) < need {
		p.mark = append(p.mark, make([]int, need-len(p.mark))...)
	}
	for f := range n {
		m, ops := inst(f)
		fuArea += m.Area
		ports := 0
		for _, op := range ops {
			ports = max(ports, len(g.Preds(op)))
		}
		for port := range ports {
			p.stamp++
			sources := 0
			for _, op := range ops {
				if preds := g.Preds(op); port < len(preds) {
					if r := p.regOf[preds[port]]; r >= 0 && p.mark[r] != p.stamp {
						p.mark[r] = p.stamp
						sources++
					}
				}
			}
			if sources > 1 {
				fuMux += sources - 1
			}
		}
	}
	for r := range p.regLast {
		p.stamp++
		writers := 0
		for _, v := range p.byReg[p.first[r]:p.first[r+1]] {
			if f := fuOf[v]; p.mark[f] != p.stamp {
				p.mark[f] = p.stamp
				writers++
			}
		}
		if writers > 1 {
			regMux += writers - 1
		}
	}
	return fuArea, fuMux, regMux
}
