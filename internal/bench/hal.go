// Package bench provides the classical high-level-synthesis benchmark
// data-flow graphs the paper evaluates on ("hal", "cosine", "elliptic"),
// plus secondary benchmarks (fir, ar, diffeq2, fft). Random instances for
// property-based testing come from internal/gen.
//
// Each graph uses explicit Input ("imp") and Output ("xpt") transfer nodes,
// matching the input/output rows of the paper's functional-unit library
// (Table 1). The named benchmarks are reconstructions from the open
// literature; any place where the exact historical netlist is uncertain is
// documented on the constructor.
package bench

import "pchls/internal/cdfg"

// HAL returns the HAL differential-equation benchmark (Paulin & Knight):
// one Euler integration step of y” + 3xy' + 3y = 0. It contains the
// canonical 11 operations — 6 multiplications, 2 additions, 2 subtractions
// and 1 comparison — plus 5 input and 4 output transfer nodes (20 nodes
// total):
//
//	x1 = x + dx
//	u1 = u - 3*x*(u*dx) - 3*y*dx
//	y1 = y + u*dx
//	c  = x1 < a
func HAL() *cdfg.Graph {
	g := cdfg.New("hal")
	// Inputs.
	x := g.MustAddNode("x", cdfg.Input)
	y := g.MustAddNode("y", cdfg.Input)
	u := g.MustAddNode("u", cdfg.Input)
	dx := g.MustAddNode("dx", cdfg.Input)
	a := g.MustAddNode("a", cdfg.Input)

	// x1 = x + dx.
	add1 := g.MustAddNode("add1", cdfg.Add)
	g.MustAddEdge(x, add1)
	g.MustAddEdge(dx, add1)

	// mul1 = 3*x (constant 3 is wired internally, single graph operand).
	mul1 := g.MustAddNode("mul1", cdfg.Mul)
	g.MustAddEdge(x, mul1)
	// mul2 = u*dx.
	mul2 := g.MustAddNode("mul2", cdfg.Mul)
	g.MustAddEdge(u, mul2)
	g.MustAddEdge(dx, mul2)
	// mul3 = 3*y.
	mul3 := g.MustAddNode("mul3", cdfg.Mul)
	g.MustAddEdge(y, mul3)
	// mul4 = mul1*mul2 = 3x(u dx).
	mul4 := g.MustAddNode("mul4", cdfg.Mul)
	g.MustAddEdge(mul1, mul4)
	g.MustAddEdge(mul2, mul4)
	// mul5 = mul3*dx = 3y dx.
	mul5 := g.MustAddNode("mul5", cdfg.Mul)
	g.MustAddEdge(mul3, mul5)
	g.MustAddEdge(dx, mul5)
	// sub1 = u - mul4.
	sub1 := g.MustAddNode("sub1", cdfg.Sub)
	g.MustAddEdge(u, sub1)
	g.MustAddEdge(mul4, sub1)
	// sub2 = sub1 - mul5 (= u1).
	sub2 := g.MustAddNode("sub2", cdfg.Sub)
	g.MustAddEdge(sub1, sub2)
	g.MustAddEdge(mul5, sub2)
	// mul6 = u*dx for the y update (kept distinct, as in the canonical DFG).
	mul6 := g.MustAddNode("mul6", cdfg.Mul)
	g.MustAddEdge(u, mul6)
	g.MustAddEdge(dx, mul6)
	// add2 = y + mul6 (= y1).
	add2 := g.MustAddNode("add2", cdfg.Add)
	g.MustAddEdge(y, add2)
	g.MustAddEdge(mul6, add2)
	// cmp1 = x1 < a.
	cmp1 := g.MustAddNode("cmp1", cdfg.Cmp)
	g.MustAddEdge(add1, cmp1)
	g.MustAddEdge(a, cmp1)

	// Outputs.
	outX := g.MustAddNode("out_x1", cdfg.Output)
	g.MustAddEdge(add1, outX)
	outY := g.MustAddNode("out_y1", cdfg.Output)
	g.MustAddEdge(add2, outY)
	outU := g.MustAddNode("out_u1", cdfg.Output)
	g.MustAddEdge(sub2, outU)
	outC := g.MustAddNode("out_c", cdfg.Output)
	g.MustAddEdge(cmp1, outC)

	mustValid(g)
	return g
}

// mustValid panics if a benchmark constructor produced an invalid graph;
// benchmark graphs are static, so this is a programmer-error assertion.
func mustValid(g *cdfg.Graph) {
	if err := g.Validate(); err != nil {
		panic("bench: invalid benchmark graph " + g.Name + ": " + err.Error())
	}
}
