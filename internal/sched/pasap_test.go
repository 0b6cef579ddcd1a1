package sched

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pchls/internal/cdfg"
	"pchls/internal/library"
)

// chain builds i1 -> m1(*) -> a1(+) -> o1(xpt).
func chain(t *testing.T) *cdfg.Graph {
	t.Helper()
	g := cdfg.New("chain")
	i1 := g.MustAddNode("i1", cdfg.Input)
	m1 := g.MustAddNode("m1", cdfg.Mul)
	a1 := g.MustAddNode("a1", cdfg.Add)
	o1 := g.MustAddNode("o1", cdfg.Output)
	g.MustAddEdge(i1, m1)
	g.MustAddEdge(m1, a1)
	g.MustAddEdge(a1, o1)
	return g
}

// fixOne returns a FixedStarts table over n nodes that fixes only node id,
// at start.
func fixOne(n int, id cdfg.NodeID, start int) []int {
	fixed := make([]int, n)
	for i := range fixed {
		fixed[i] = -1
	}
	fixed[id] = start
	return fixed
}

// wide builds a graph with k independent multiplies between one input and
// one output-adder chain, to exercise power-driven serialization:
// i -> m1..mk, all mk -> tree of adds -> o. For simplicity each mj feeds a
// distinct adder chained linearly.
func wide(t *testing.T, k int) *cdfg.Graph {
	t.Helper()
	g := cdfg.New("wide")
	in := g.MustAddNode("i", cdfg.Input)
	prev := cdfg.None
	for j := 0; j < k; j++ {
		m := g.MustAddNode("m"+string(rune('0'+j)), cdfg.Mul)
		g.MustAddEdge(in, m)
		a := g.MustAddNode("a"+string(rune('0'+j)), cdfg.Add)
		g.MustAddEdge(m, a)
		if prev != cdfg.None {
			g.MustAddEdge(prev, a)
		}
		prev = a
	}
	o := g.MustAddNode("o", cdfg.Output)
	g.MustAddEdge(prev, o)
	return g
}

func fastest(t *testing.T) Binding {
	t.Helper()
	return UniformFastest(library.Table1())
}

func TestASAPChain(t *testing.T) {
	g := chain(t)
	s, err := ASAP(g, fastest(t))
	if err != nil {
		t.Fatal(err)
	}
	// input 1 cycle, parallel mult 2 cycles, add 1, output 1 => starts 0,1,3,4.
	wantStart := map[string]int{"i1": 0, "m1": 1, "a1": 3, "o1": 4}
	for name, want := range wantStart {
		n, _ := g.Lookup(name)
		if s.Start[n.ID] != want {
			t.Errorf("ASAP start[%s] = %d, want %d", name, s.Start[n.ID], want)
		}
	}
	if s.Length() != 5 {
		t.Errorf("ASAP length = %d, want 5", s.Length())
	}
	if err := s.Validate(0, 0); err != nil {
		t.Errorf("ASAP schedule invalid: %v", err)
	}
}

func TestASAPSerialMultBinding(t *testing.T) {
	g := chain(t)
	s, err := ASAP(g, UniformSmallest(library.Table1()))
	if err != nil {
		t.Fatal(err)
	}
	// Serial mult takes 4 cycles: starts 0,1,5,6; length 7.
	n, _ := g.Lookup("a1")
	if s.Start[n.ID] != 5 || s.Length() != 7 {
		t.Fatalf("serial-mult ASAP: a1 start %d, length %d", s.Start[n.ID], s.Length())
	}
	if s.Module[1] != library.NameMulSer {
		t.Fatalf("m1 module = %q", s.Module[1])
	}
}

func TestALAPChain(t *testing.T) {
	g := chain(t)
	s, err := ALAP(g, fastest(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	// Everything shifted to end at cycle 8: o1 starts 7, a1 6, m1 4, i1 3.
	wantStart := map[string]int{"i1": 3, "m1": 4, "a1": 6, "o1": 7}
	for name, want := range wantStart {
		n, _ := g.Lookup(name)
		if s.Start[n.ID] != want {
			t.Errorf("ALAP start[%s] = %d, want %d", name, s.Start[n.ID], want)
		}
	}
	if err := s.Validate(0, 8); err != nil {
		t.Errorf("ALAP schedule invalid: %v", err)
	}
}

func TestALAPTightDeadlineEqualsASAP(t *testing.T) {
	g := chain(t)
	bind := fastest(t)
	asap, _ := ASAP(g, bind)
	alap, err := ALAP(g, bind, asap.Length())
	if err != nil {
		t.Fatal(err)
	}
	for i := range asap.Start {
		if asap.Start[i] != alap.Start[i] {
			t.Errorf("node %d: asap %d != alap %d under critical deadline", i, asap.Start[i], alap.Start[i])
		}
	}
}

func TestALAPImpossibleDeadline(t *testing.T) {
	g := chain(t)
	if _, err := ALAP(g, fastest(t), 3); !errors.Is(err, ErrDeadline) {
		t.Fatalf("ALAP with impossible deadline = %v, want ErrDeadline", err)
	}
	if _, err := ALAP(g, fastest(t), 0); err == nil {
		t.Fatal("ALAP accepted non-positive deadline")
	}
}

func TestPASAPUnconstrainedMatchesASAP(t *testing.T) {
	g := wide(t, 3)
	bind := fastest(t)
	a, _ := ASAP(g, bind)
	p, err := PASAP(g, bind, Options{PowerMax: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Start {
		if a.Start[i] != p.Start[i] {
			t.Errorf("node %d: asap %d, pasap(loose) %d", i, a.Start[i], p.Start[i])
		}
	}
}

func TestPASAPCapsPower(t *testing.T) {
	g := wide(t, 3)
	bind := fastest(t)
	a, _ := ASAP(g, bind)
	unconstrainedPeak := a.PeakPower()
	// Three parallel mults at 8.1 each overlap under ASAP.
	if unconstrainedPeak < 16 {
		t.Fatalf("test premise broken: unconstrained peak %.2f", unconstrainedPeak)
	}
	pmax := 9.0 // allows only one parallel mult at a time
	s, err := PASAP(g, bind, Options{PowerMax: pmax})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(pmax, 0); err != nil {
		t.Fatalf("pasap schedule invalid: %v", err)
	}
	if got := s.PeakPower(); got > pmax {
		t.Fatalf("pasap peak %.2f > %.2f", got, pmax)
	}
	if s.Length() <= a.Length() {
		t.Fatalf("pasap should stretch the schedule: %d vs asap %d", s.Length(), a.Length())
	}
	// Energy is invariant under stretching.
	if s.Energy() != a.Energy() {
		t.Fatalf("energy changed: %.2f vs %.2f", s.Energy(), a.Energy())
	}
}

func TestPASAPSingleOpInfeasible(t *testing.T) {
	g := chain(t)
	if _, err := PASAP(g, fastest(t), Options{PowerMax: 5}); !errors.Is(err, ErrPowerInfeasible) {
		// Parallel mult draws 8.1 > 5.
		t.Fatalf("pasap = %v, want ErrPowerInfeasible", err)
	}
	// With the smallest (serial) multiplier it fits.
	if _, err := PASAP(g, UniformSmallest(library.Table1()), Options{PowerMax: 5}); err != nil {
		t.Fatalf("serial-mult pasap under P<=5: %v", err)
	}
}

func TestPASAPWithBaseProfile(t *testing.T) {
	g := cdfg.New("single")
	g.MustAddNode("a", cdfg.Add)  // 2.5 power, 1 cycle
	base := []float64{9, 9, 9, 1} // only cycle 3 has room under P<=10
	s, err := PASAP(g, fastest(t), Options{PowerMax: 10, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] != 3 {
		t.Fatalf("node delayed to %d, want 3", s.Start[0])
	}
}

func TestPASAPWithFixedNodes(t *testing.T) {
	g := chain(t)
	bind := fastest(t)
	m, _ := g.Lookup("m1")
	s, err := PASAP(g, bind, Options{FixedStarts: fixOne(g.N(), m.ID, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[m.ID] != 5 {
		t.Fatalf("fixed node moved to %d", s.Start[m.ID])
	}
	a, _ := g.Lookup("a1")
	if s.Start[a.ID] != 7 { // after fixed mult ends (5+2)
		t.Fatalf("successor of fixed node starts at %d, want 7", s.Start[a.ID])
	}
	if err := s.Validate(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestPASAPFixedBeyondAutoHorizon(t *testing.T) {
	g := cdfg.New("g")
	a := g.MustAddNode("a", cdfg.Add)
	b := g.MustAddNode("b", cdfg.Add)
	g.MustAddEdge(a, b)
	s, err := PASAP(g, fastest(t), Options{FixedStarts: fixOne(g.N(), a, 100)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[b] != 101 {
		t.Fatalf("b start = %d, want 101", s.Start[b])
	}
}

func TestPALAPChain(t *testing.T) {
	g := chain(t)
	s, err := PALAP(g, fastest(t), 8, Options{PowerMax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(100, 8); err != nil {
		t.Fatalf("palap invalid: %v", err)
	}
	o, _ := g.Lookup("o1")
	if s.End(o.ID) != 8 {
		t.Fatalf("palap should finish at the deadline; output ends at %d", s.End(o.ID))
	}
}

func TestPALAPPowerForcesEarlierStarts(t *testing.T) {
	g := wide(t, 3)
	bind := fastest(t)
	loose, err := PALAP(g, bind, 20, Options{PowerMax: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := PALAP(g, bind, 20, Options{PowerMax: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := tight.Validate(9, 20); err != nil {
		t.Fatalf("tight palap invalid: %v", err)
	}
	// Under the tight power cap the multipliers cannot all sit late; at
	// least one starts earlier than in the loose schedule.
	movedEarlier := false
	for i := range tight.Start {
		if tight.Start[i] < loose.Start[i] {
			movedEarlier = true
		}
	}
	if !movedEarlier {
		t.Fatal("tight power cap did not move any operation earlier")
	}
}

func TestPALAPDeadlineInfeasible(t *testing.T) {
	g := wide(t, 4)
	// Power cap of 9 serializes four 2-cycle multiplies: needs ~8 cycles
	// plus input/adds; deadline 6 is impossible.
	_, err := PALAP(g, fastest(t), 6, Options{PowerMax: 9})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("palap = %v, want ErrDeadline", err)
	}
	if _, err := PALAP(g, fastest(t), -1, Options{}); err == nil {
		t.Fatal("palap accepted negative deadline")
	}
}

func TestWindowsUnconstrainedAreClassicalMobility(t *testing.T) {
	g := wide(t, 3)
	bind := fastest(t)
	const deadline = 15
	ws, err := Windows(g, bind, deadline, Options{})
	if err != nil {
		t.Fatal(err)
	}
	asap, _ := ASAP(g, bind)
	alap, _ := ALAP(g, bind, deadline)
	for i, w := range ws {
		if w.Early != asap.Start[i] || w.Late != alap.Start[i] {
			t.Errorf("node %d window [%d,%d], want [%d,%d]", i, w.Early, w.Late, asap.Start[i], alap.Start[i])
		}
		if w.Width() < 1 {
			t.Errorf("node %d window empty", i)
		}
	}
}

func TestWindowsMayBeEmptyUnderPower(t *testing.T) {
	// pasap and palap are heuristics: under a tight power cap a node's
	// pasap placement can land later than its palap placement, yielding an
	// empty window. The synthesizer treats such nodes as stranded and
	// repairs via backtrack-and-lock; here we only document the behaviour:
	// Windows must still return consistent per-schedule data (each
	// endpoint belongs to a valid schedule).
	g := wide(t, 3)
	bind := fastest(t)
	const deadline, pmax = 15, 9.0
	ws, err := Windows(g, bind, deadline, Options{PowerMax: pmax})
	if err != nil {
		t.Fatal(err)
	}
	early, err := PASAP(g, bind, Options{PowerMax: pmax})
	if err != nil {
		t.Fatal(err)
	}
	late, err := PALAP(g, bind, deadline, Options{PowerMax: pmax})
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range ws {
		if w.Early != early.Start[i] || w.Late != late.Start[i] {
			t.Errorf("node %d window [%d,%d] disagrees with schedules [%d,%d]",
				i, w.Early, w.Late, early.Start[i], late.Start[i])
		}
	}
}

func TestWindowsDeadlineTooTight(t *testing.T) {
	g := chain(t)
	_, err := Windows(g, fastest(t), 3, Options{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("windows = %v, want ErrDeadline", err)
	}
}

func TestQuickPASAPAlwaysValid(t *testing.T) {
	lib := library.Table1()
	ops := []cdfg.Op{cdfg.Add, cdfg.Sub, cdfg.Mul, cdfg.Cmp}
	f := func(seed int64, szRaw, pRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%25) + 2
		g := cdfg.New("rand")
		for i := 0; i < n; i++ {
			g.MustAddNode(randName(i), ops[rng.Intn(len(ops))])
		}
		for v := 1; v < n; v++ {
			for k := 0; k < rng.Intn(2)+1 && len(g.Preds(cdfg.NodeID(v))) < 2; k++ {
				u := rng.Intn(v)
				hasEdge := false
				for _, w := range g.Preds(cdfg.NodeID(v)) {
					if int(w) == u {
						hasEdge = true
					}
				}
				if !hasEdge {
					g.MustAddEdge(cdfg.NodeID(u), cdfg.NodeID(v))
				}
			}
		}
		pmax := 8.2 + float64(pRaw%40) // >= 8.1 so parallel mult fits
		s, err := PASAP(g, UniformFastest(lib), Options{PowerMax: pmax})
		if err != nil {
			return false
		}
		return s.Validate(pmax, 0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPALAPValidAndMeetsDeadline(t *testing.T) {
	lib := library.Table1()
	ops := []cdfg.Op{cdfg.Add, cdfg.Sub, cdfg.Mul}
	f := func(seed int64, szRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(szRaw%20) + 2
		g := cdfg.New("rand")
		for i := 0; i < n; i++ {
			g.MustAddNode(randName(i), ops[rng.Intn(len(ops))])
		}
		for v := 1; v < n; v++ {
			u := rng.Intn(v)
			if len(g.Preds(cdfg.NodeID(v))) < 2 {
				g.MustAddEdge(cdfg.NodeID(u), cdfg.NodeID(v))
			}
		}
		bind := UniformFastest(lib)
		// Generous deadline: serial bound.
		deadline := 0
		for _, node := range g.Nodes() {
			deadline += bind(node).Delay
		}
		pmax := 8.2 + float64((seed%20+20)%20)
		s, err := PALAP(g, bind, deadline, Options{PowerMax: pmax})
		if errors.Is(err, ErrDeadline) {
			// Heuristic infeasibility under a fragmented profile is
			// permitted; the property is about schedules that ARE produced.
			return true
		}
		if err != nil {
			return false
		}
		return s.Validate(pmax, deadline) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randName(i int) string {
	return "v" + string(rune('a'+i/26%26)) + string(rune('a'+i%26))
}

// TestShortOptionSlicesRejected: a per-node option table whose length is
// not the node count is an error naming the field, for both schedulers,
// never an index panic.
func TestShortOptionSlicesRejected(t *testing.T) {
	g := chain(t)
	bind := fastest(t)
	for _, c := range []struct {
		field string
		opts  Options
	}{
		{"FixedStarts", Options{FixedStarts: []int{0}}},
		{"Release", Options{Release: []int{0, 1}}},
		{"Due", Options{Due: []int{9, 9, 9, 9, 9}}},
		{"Delays", Options{Delays: []int{1}, Powers: []float64{1, 1, 1, 1}}},
		{"Powers", Options{Delays: []int{1, 1, 1, 1}, Powers: []float64{1}}},
	} {
		if _, err := PASAP(g, bind, c.opts); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("PASAP with a bad %s: err = %v, want an error naming the field", c.field, err)
		}
		if _, err := PALAP(g, bind, 20, c.opts); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("PALAP with a bad %s: err = %v, want an error naming the field", c.field, err)
		}
	}
}
