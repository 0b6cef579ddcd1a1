package bench

import (
	"testing"

	"pchls/internal/cdfg"
	"pchls/internal/library"
	"pchls/internal/sched"
)

func TestHALOpCounts(t *testing.T) {
	g := HAL()
	counts := g.OpCounts()
	want := map[cdfg.Op]int{
		cdfg.Mul: 6, cdfg.Add: 2, cdfg.Sub: 2, cdfg.Cmp: 1,
		cdfg.Input: 5, cdfg.Output: 4,
	}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("hal %s count = %d, want %d", op, counts[op], n)
		}
	}
	if g.N() != 20 {
		t.Errorf("hal has %d nodes, want 20", g.N())
	}
}

func TestCosineOpCounts(t *testing.T) {
	g := Cosine()
	counts := g.OpCounts()
	want := map[cdfg.Op]int{
		cdfg.Mul: 16, cdfg.Add: 12, cdfg.Sub: 12,
		cdfg.Input: 8, cdfg.Output: 8,
	}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("cosine %s count = %d, want %d", op, counts[op], n)
		}
	}
	if g.N() != 56 {
		t.Errorf("cosine has %d nodes, want 56", g.N())
	}
}

func TestEllipticOpCounts(t *testing.T) {
	g := Elliptic()
	counts := g.OpCounts()
	// The classical elliptic wave filter profile: 26 additions and 8
	// multiplications.
	want := map[cdfg.Op]int{
		cdfg.Add: 26, cdfg.Mul: 8,
		cdfg.Input: 8, cdfg.Output: 8,
	}
	for op, n := range want {
		if counts[op] != n {
			t.Errorf("elliptic %s count = %d, want %d", op, counts[op], n)
		}
	}
	if g.N() != 50 {
		t.Errorf("elliptic has %d nodes, want 50", g.N())
	}
}

// TestFigure2TimeConstraintsAreFeasible checks the premises of the paper's
// Figure 2: each benchmark must be schedulable (power-unconstrained) at the
// time constraints the figure names, with the fastest library modules.
func TestFigure2TimeConstraintsAreFeasible(t *testing.T) {
	lib := library.Table1()
	fastest := sched.UniformFastest(lib)
	cases := []struct {
		g *cdfg.Graph
		T int
	}{
		{HAL(), 10}, {HAL(), 17},
		{Cosine(), 12}, {Cosine(), 15}, {Cosine(), 19},
		{Elliptic(), 22},
	}
	for _, tc := range cases {
		s, err := sched.ASAP(tc.g, fastest)
		if err != nil {
			t.Fatalf("%s: %v", tc.g.Name, err)
		}
		if s.Length() > tc.T {
			t.Errorf("%s: critical path %d exceeds Figure 2 time constraint T=%d", tc.g.Name, s.Length(), tc.T)
		}
	}
}

// TestSerialMultiplierHeadroom checks the library trade-off the figure
// depends on: with serial (4-cycle) multipliers HAL fits T=17 but not
// T=10, and cosine fits T=15 but not T=12.
func TestSerialMultiplierHeadroom(t *testing.T) {
	smallest := sched.UniformSmallest(library.Table1())
	hal, _ := sched.ASAP(HAL(), smallest)
	if hal.Length() > 17 {
		t.Errorf("hal serial critical path %d > 17", hal.Length())
	}
	if hal.Length() <= 10 {
		t.Errorf("hal serial critical path %d <= 10; expected serial mults to be infeasible at T=10", hal.Length())
	}
	cos, _ := sched.ASAP(Cosine(), smallest)
	if cos.Length() > 15 {
		t.Errorf("cosine serial critical path %d > 15", cos.Length())
	}
	if cos.Length() <= 12 {
		t.Errorf("cosine serial critical path %d <= 12; expected serial mults to be infeasible at T=12", cos.Length())
	}
}

func TestEllipticCriticalPathHasSlackAt22(t *testing.T) {
	fastest := sched.UniformFastest(library.Table1())
	s, err := sched.ASAP(Elliptic(), fastest)
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() > 22 {
		t.Fatalf("elliptic critical path %d > 22", s.Length())
	}
	if 22-s.Length() < 2 {
		t.Fatalf("elliptic should keep some slack at T=22, critical path %d", s.Length())
	}
	// All-serial multipliers must NOT fit at T=22 (the trade-off exists).
	smallest := sched.UniformSmallest(library.Table1())
	ss, _ := sched.ASAP(Elliptic(), smallest)
	if ss.Length() <= 22 {
		t.Fatalf("elliptic all-serial critical path %d <= 22; expected pressure toward parallel multipliers", ss.Length())
	}
}

func TestFIR(t *testing.T) {
	g := FIR(16)
	counts := g.OpCounts()
	if counts[cdfg.Mul] != 16 || counts[cdfg.Add] != 15 {
		t.Fatalf("fir16 ops = %v", counts)
	}
	if counts[cdfg.Input] != 16 || counts[cdfg.Output] != 1 {
		t.Fatalf("fir16 io = %v", counts)
	}
	// Odd tap count exercises the tree carry case.
	g5 := FIR(5)
	if c := g5.OpCounts(); c[cdfg.Add] != 4 {
		t.Fatalf("fir5 adds = %d, want 4", c[cdfg.Add])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FIR(1) should panic")
		}
	}()
	FIR(1)
}

func TestAR(t *testing.T) {
	g := AR()
	counts := g.OpCounts()
	if counts[cdfg.Mul] != 16 || counts[cdfg.Add] != 12 {
		t.Fatalf("ar ops = %v", counts)
	}
}

func TestDiffeq2(t *testing.T) {
	g := Diffeq2()
	counts := g.OpCounts()
	if counts[cdfg.Mul] != 10 || counts[cdfg.Add] != 4 || counts[cdfg.Sub] != 4 || counts[cdfg.Cmp] != 1 {
		t.Fatalf("diffeq2 ops = %v", counts)
	}
}

func TestAllAndByName(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("All() has %d graphs", len(all))
	}
	for name, g := range all {
		if g.Name != name && name != "fir16" { // fir16's graph is named fir16 too
			t.Errorf("graph %q has name %q", name, g.Name)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("benchmark %q invalid: %v", name, err)
		}
		got, err := ByName(name)
		if err != nil || got.N() != g.N() {
			t.Errorf("ByName(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown name")
	}
}

func TestBenchmarksScheduleUnderTable1(t *testing.T) {
	// Every benchmark must be fully coverable and schedulable with Table 1.
	lib := library.Table1()
	for name, g := range All() {
		if missing := lib.Covers(g); missing != nil {
			t.Errorf("%s: uncovered ops %v", name, missing)
			continue
		}
		s, err := sched.ASAP(g, sched.UniformFastest(lib))
		if err != nil {
			t.Errorf("%s: asap failed: %v", name, err)
			continue
		}
		if err := s.Validate(0, 0); err != nil {
			t.Errorf("%s: invalid asap: %v", name, err)
		}
	}
}

func TestFFT(t *testing.T) {
	g := FFT(8)
	counts := g.OpCounts()
	if counts[cdfg.Mul] != 12 || counts[cdfg.Add] != 12 || counts[cdfg.Sub] != 12 {
		t.Fatalf("fft8 ops = %v", counts)
	}
	if counts[cdfg.Input] != 8 || counts[cdfg.Output] != 8 {
		t.Fatalf("fft8 io = %v", counts)
	}
	// Depth: in(1) + 3 stages of (mul 2 + add 1) + out(1) = 11 with
	// parallel multipliers.
	s, err := sched.ASAP(g, sched.UniformFastest(library.Table1()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() != 11 {
		t.Fatalf("fft8 critical path = %d, want 11", s.Length())
	}
	// FFT(16): (16/2)*4 = 32 butterflies.
	g16 := FFT(16)
	if c := g16.OpCounts(); c[cdfg.Mul] != 32 {
		t.Fatalf("fft16 muls = %d, want 32", c[cdfg.Mul])
	}
	for _, bad := range []int{0, 3, 6, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FFT(%d) should panic", bad)
				}
			}()
			FFT(bad)
		}()
	}
}
