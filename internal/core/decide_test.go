package core

import (
	"math/rand"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// newTestState builds an initialized synthesizer state without running the
// main loop, for unit-testing the decision internals.
func newTestState(t *testing.T, g *cdfg.Graph, cons Constraints) *state {
	t.Helper()
	lib := library.Table1()
	st := &state{
		g: g, lib: lib, cons: cons, cfg: Config{},
		committed: make([]bool, g.N()),
		start:     make([]int, g.N()),
		moduleOf:  make([]int, g.N()),
		fuOf:      make([]int, g.N()),
		profile:   make([]float64, cons.Deadline),
	}
	for i := range st.fuOf {
		st.fuOf[i] = -1
	}
	for _, n := range g.Nodes() {
		mi, err := fastestFeasible(lib, cons, n.Op)
		if err != nil {
			t.Fatal(err)
		}
		st.moduleOf[n.ID] = mi
	}
	st.initTables()
	return st
}

// TestAmortizedArea drives the amortized-area estimate the way
// bestDecision does: countPotential's per-module counts fed to
// amortizedAreaWith.
func TestAmortizedArea(t *testing.T) {
	g := bench.HAL() // 6 muls, 2 adds, 2 subs, 1 cmp
	st := newTestState(t, g, Constraints{Deadline: 10})
	var parIdx, serIdx, aluIdx int
	for _, mi := range st.lib.Candidates(cdfg.Mul) {
		switch st.lib.Module(mi).Name {
		case library.NameMulPar:
			parIdx = mi
		case library.NameMulSer:
			serIdx = mi
		}
	}
	for _, mi := range st.lib.Candidates(cdfg.Add) {
		if st.lib.Module(mi).Name == library.NameALU {
			aluIdx = mi
		}
	}
	amortized := func(mi, potential int) float64 {
		t.Helper()
		st.countPotential()
		if st.potential[mi] != potential {
			t.Errorf("%s potential = %d, want %d", st.lib.Module(mi).Name, st.potential[mi], potential)
		}
		return st.amortizedAreaWith(mi, st.potential[mi])
	}
	// Parallel mult: potential 6 muls, slots 10/2 = 5 -> 339/5.
	if got := amortized(parIdx, 6); got != 339.0/5 {
		t.Errorf("parallel mult amortized = %g, want %g", got, 339.0/5)
	}
	// Serial mult: slots 10/4 = 2 -> 103/2.
	if got := amortized(serIdx, 6); got != 103.0/2 {
		t.Errorf("serial mult amortized = %g, want %g", got, 103.0/2)
	}
	// ALU: potential 2+2+1 = 5 ops, slots 10 -> 97/5.
	if got := amortized(aluIdx, 5); got != 97.0/5 {
		t.Errorf("ALU amortized = %g, want %g", got, 97.0/5)
	}
	// Committing operations shrinks the potential.
	muls := g.NodesOf(cdfg.Mul)
	for _, id := range muls[:4] {
		st.committed[id] = true
	}
	if got := amortized(parIdx, 2); got != 339.0/2 {
		t.Errorf("parallel mult amortized after commits = %g, want %g", got, 339.0/2)
	}
}

func TestMuxEstimate(t *testing.T) {
	// Two adds with different producers sharing one FU: both operand
	// ports change sources (+2) plus the result-side write (+1) = 3 mux
	// inputs at 4 area each.
	g := cdfg.New("t")
	i1 := g.MustAddNode("i1", cdfg.Input)
	i2 := g.MustAddNode("i2", cdfg.Input)
	i3 := g.MustAddNode("i3", cdfg.Input)
	i4 := g.MustAddNode("i4", cdfg.Input)
	a1 := g.MustAddNode("a1", cdfg.Add)
	a2 := g.MustAddNode("a2", cdfg.Add)
	g.MustAddEdge(i1, a1)
	g.MustAddEdge(i2, a1)
	g.MustAddEdge(i3, a2)
	g.MustAddEdge(i4, a2)
	st := newTestState(t, g, Constraints{Deadline: 10})
	addIdx := st.moduleOf[a1]
	st.addInstance(addIdx, []cdfg.NodeID{a1})
	st.committed[a1] = true
	st.fuOf[a1] = 0
	if got := st.muxEstimate(a2, 0); got != 3*4.0 {
		t.Errorf("muxEstimate = %g, want 12", got)
	}
	// Empty instance: free.
	st.addInstance(addIdx, nil)
	if got := st.muxEstimate(a2, 1); got != 0 {
		t.Errorf("muxEstimate on empty FU = %g, want 0", got)
	}
}

func TestFreeSlot(t *testing.T) {
	g := bench.HAL()
	st := newTestState(t, g, Constraints{Deadline: 10, PowerMax: 100})
	// One busy op over [2,4): a 2-cycle op with window [0,6] fits at 0.
	muls := g.NodesOf(cdfg.Mul)
	v, other := muls[0], muls[1]
	st.start[other], st.delays[other] = 2, 2
	busy := []cdfg.NodeID{other}
	if tt, ok := st.freeSlot(v, busy, sched.Window{Early: 0, Late: 6}, 2, 8.1); !ok || tt != 0 {
		t.Fatalf("freeSlot = %d, %v; want 0", tt, ok)
	}
	// Window starting at 1: [1,3) overlaps, [2,4) overlaps, 4 is free.
	if tt, ok := st.freeSlot(v, busy, sched.Window{Early: 1, Late: 6}, 2, 8.1); !ok || tt != 4 {
		t.Fatalf("freeSlot = %d, %v; want 4", tt, ok)
	}
	// No room before the deadline: a 2-cycle op at window [9,9] ends at 11.
	if _, ok := st.freeSlot(v, nil, sched.Window{Early: 9, Late: 9}, 2, 8.1); ok {
		t.Fatal("slot beyond deadline accepted")
	}
	// Power-blocked: commit an op drawing 8.1 at cycles 0-1, cap 10.
	st.cons.PowerMax = 10
	st.commit(Decision{Node: v, Module: st.lib.Module(st.moduleOf[v]).Name, FU: 0, NewFU: true, Start: 0})
	if tt, ok := st.freeSlot(other, nil, sched.Window{Early: 0, Late: 6}, 1, 8.1); !ok || tt != 2 {
		t.Fatalf("power-blocked freeSlot = %d, %v; want 2", tt, ok)
	}
}

func TestFastestFeasibleRespectsPowerCap(t *testing.T) {
	g := bench.HAL()
	st := newTestState(t, g, Constraints{Deadline: 20, PowerMax: 5})
	mi, err := fastestFeasible(st.lib, st.cons, cdfg.Mul)
	if err != nil {
		t.Fatal(err)
	}
	if st.lib.Module(mi).Name != library.NameMulSer {
		t.Fatalf("under P<=5 the serial mult is the only feasible one, got %q", st.lib.Module(mi).Name)
	}
	st.cons.PowerMax = 1
	if _, err := fastestFeasible(st.lib, st.cons, cdfg.Mul); err == nil {
		t.Fatal("P<=1 accepted for multiplication")
	}
}

// FuzzFit holds the engine's one earliest-fit search to the paper's rule
// written out naively: walk the window one cycle at a time (from the late
// end when late) and take the first start whose execution ends by the
// deadline, overlaps no busy operation other than the one being placed
// and keeps every covered cycle's profile + power under the cap.
// fit's jumps over blocked starts must never change the answer. The busy
// list is a timeline, as every caller passes one: disjoint executions in
// start order, sometimes holding the operation being placed.
func FuzzFit(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), uint8(11), uint8(2), uint8(4), true)
	f.Add(int64(2), uint8(30), uint8(3), uint8(20), uint8(3), uint8(6), true)
	f.Add(int64(3), uint8(8), uint8(2), uint8(2), uint8(1), uint8(0), false)
	f.Add(int64(4), uint8(40), uint8(0), uint8(45), uint8(5), uint8(8), true)
	f.Fuzz(func(t *testing.T, seed int64, deadline, lo, hi, delay, nbusy uint8, capped bool) {
		T, d := 1+int(deadline%48), 1+int(delay%6)
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nbusy%10)
		st := &state{
			cons:    Constraints{Deadline: T},
			start:   make([]int, n+1),
			delays:  make([]int, n+1),
			profile: make([]float64, T),
		}
		busy := make([]cdfg.NodeID, 0, n)
		for o, at := 0, 0; o < n; o++ {
			st.start[o], st.delays[o] = at+rng.Intn(2+T/8), 1+rng.Intn(5)
			at = st.start[o] + st.delays[o]
			if rng.Intn(4) > 0 {
				busy = append(busy, cdfg.NodeID(o))
			}
		}
		// x, the operation being placed, is an extra node anywhere or one of
		// the timeline's.
		x := cdfg.NodeID(n)
		st.start[x], st.delays[x] = rng.Intn(T), 1+rng.Intn(5)
		if len(busy) > 0 && rng.Intn(2) == 0 {
			x = busy[rng.Intn(len(busy))]
		}
		// Multiples of 0.1 make exact ties with the cap likely; the range
		// covers committed plus ambient power.
		for c := range st.profile {
			st.profile[c] = 0.1 * float64(rng.Intn(12))
		}
		p := 0.1 * float64(1+rng.Intn(6))
		if capped {
			st.cons.PowerMax = 0.1 * float64(1+rng.Intn(14))
		}
		naive := func(late bool) (int, bool) {
			fits := func(t int) bool {
				if t+d > T {
					return false
				}
				for _, o := range busy {
					if o != x && st.start[o] < t+d && t < st.start[o]+st.delays[o] {
						return false
					}
				}
				for c := t; capped && c < t+d; c++ {
					if st.profile[c]+p > st.cons.PowerMax+1e-9 {
						return false
					}
				}
				return true
			}
			if late {
				for t := int(hi); t >= int(lo); t-- {
					if fits(t) {
						return t, true
					}
				}
				return 0, false
			}
			for t := int(lo); t <= int(hi); t++ {
				if fits(t) {
					return t, true
				}
			}
			return 0, false
		}
		for _, late := range []bool{false, true} {
			wt, wok := naive(late)
			gt, gok := st.fit(x, busy, int(lo), int(hi), d, p, late)
			if gt != wt || gok != wok {
				t.Fatalf("late=%v T=%d window [%d,%d] d=%d p=%g cap=%g: fit = %d,%v; naive scan = %d,%v",
					late, T, lo, hi, d, p, st.cons.PowerMax, gt, gok, wt, wok)
			}
		}
	})
}
