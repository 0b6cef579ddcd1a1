package core

import (
	"testing"
	"testing/quick"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/sched"
	"pchls/internal/verify"
)

func TestOracleSimpleSchedule(t *testing.T) {
	// Two adds overlapping in time need 2 adders; a third, later add
	// shares: the oracle must report 2 instances.
	g := cdfg.New("t")
	i1 := g.MustAddNode("i1", cdfg.Input)
	i2 := g.MustAddNode("i2", cdfg.Input)
	a1 := g.MustAddNode("a1", cdfg.Add)
	a2 := g.MustAddNode("a2", cdfg.Add)
	a3 := g.MustAddNode("a3", cdfg.Add)
	g.MustAddEdge(i1, a1)
	g.MustAddEdge(i2, a2)
	g.MustAddEdge(a1, a3)
	g.MustAddEdge(a2, a3)
	lib := library.Table1()
	s, err := sched.ASAP(g, sched.UniformSmallest(lib))
	if err != nil {
		t.Fatal(err)
	}
	area, counts, err := MinFUAreaForSchedule(s, lib)
	if err != nil {
		t.Fatal(err)
	}
	if counts[library.NameAdd] != 2 {
		t.Fatalf("adders = %d, want 2 (counts %v)", counts[library.NameAdd], counts)
	}
	if counts[library.NameInput] != 2 {
		t.Fatalf("inputs = %d, want 2", counts[library.NameInput])
	}
	wantArea := 2*87.0 + 2*16.0
	if area != wantArea {
		t.Fatalf("area = %g, want %g", area, wantArea)
	}
}

func TestOracleBackToBackSharing(t *testing.T) {
	// An op starting exactly when another ends shares one instance.
	g := cdfg.New("t")
	i := g.MustAddNode("i", cdfg.Input)
	a1 := g.MustAddNode("a1", cdfg.Add)
	a2 := g.MustAddNode("a2", cdfg.Add)
	g.MustAddEdge(i, a1)
	g.MustAddEdge(a1, a2)
	lib := library.Table1()
	s, _ := sched.ASAP(g, sched.UniformSmallest(lib))
	_, counts, err := MinFUAreaForSchedule(s, lib)
	if err != nil {
		t.Fatal(err)
	}
	if counts[library.NameAdd] != 1 {
		t.Fatalf("back-to-back adds need %d adders, want 1", counts[library.NameAdd])
	}
}

func TestOracleUnknownModule(t *testing.T) {
	g := cdfg.New("t")
	g.MustAddNode("a", cdfg.Add)
	lib := library.Table1()
	s, _ := sched.ASAP(g, sched.UniformSmallest(lib))
	s.Module[0] = "bogus"
	if _, _, err := MinFUAreaForSchedule(s, lib); err == nil {
		t.Fatal("unknown module accepted")
	}
}

func TestDesignsNeverBeatOracle(t *testing.T) {
	// Every synthesized design's FU area must be >= the oracle minimum for
	// its own schedule; on the benchmark set the greedy + merge pass is
	// expected to close the gap entirely.
	cases := []struct {
		name string
		T    int
		P    float64
	}{
		{"hal", 10, 20}, {"hal", 17, 8},
		{"cosine", 15, 30}, {"elliptic", 22, 15},
		{"fir16", 30, 0}, {"diffeq2", 30, 15},
	}
	for _, tc := range cases {
		g, err := bench.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Synthesize(g, library.Table1(), Constraints{Deadline: tc.T, PowerMax: tc.P}, Config{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gap, err := FUAreaGap(d)
		if err != nil {
			t.Fatal(err)
		}
		if gap < -1e-9 {
			t.Fatalf("%s: design FU area beats the oracle by %.1f — oracle or binder broken", tc.name, -gap)
		}
		if gap > 0 {
			t.Errorf("%s T=%d P=%g: binding gap %.1f above the oracle for its schedule", tc.name, tc.T, tc.P, gap)
		}
	}
}

func TestQuickOracleLowerBound(t *testing.T) {
	lib := library.Table1()
	f := func(seed int64, szRaw uint8) bool {
		g := gen.Graph(seed, gen.GraphConfig{Nodes: int(szRaw%12) + 2, MaxWidth: 3})
		cp, _ := g.CriticalPath(func(n cdfg.Node) int {
			if n.Op == cdfg.Mul {
				return 4
			}
			return 1
		})
		d, err := Synthesize(g, lib, Constraints{Deadline: cp + 4}, Config{})
		if err != nil {
			return true
		}
		gap, err := FUAreaGap(d)
		return err == nil && gap >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyOptimalityGapOnTinyInstances measures the greedy against the
// exhaustive optimum (verify.BruteForce, which shares no code with the
// engine): the greedy must never beat it (or the oracle is broken), and on
// these instances it should stay within 40 % FU area.
func TestGreedyOptimalityGapOnTinyInstances(t *testing.T) {
	lib := library.Table1()
	checked := 0
	for seed := int64(0); seed < 12; seed++ {
		g := gen.Graph(seed, gen.GraphConfig{Nodes: 4, MaxWidth: 2})
		cp, _ := g.CriticalPath(func(n cdfg.Node) int {
			if n.Op == cdfg.Mul {
				return 2
			}
			return 1
		})
		cons := Constraints{Deadline: cp + 3}
		exact, err := verify.BruteForce(g, lib, cons.Deadline, cons.PowerMax, verify.BruteOptions{MaxNodes: 16})
		if err != nil {
			t.Fatal(err)
		}
		if !exact.Feasible {
			continue
		}
		in := verify.Input{
			Graph: g, Library: lib, Deadline: cons.Deadline, PowerMax: cons.PowerMax,
			Start: exact.Start, Module: make([]string, g.N()), FU: exact.FU,
			ReportedFUArea: exact.FUArea,
		}
		fus := 0
		for _, f := range exact.FU {
			fus = max(fus, f+1)
		}
		in.FUModules = make([]string, fus)
		for v, mi := range exact.Module {
			in.Module[v] = lib.Module(mi).Name
			in.FUModules[exact.FU[v]] = in.Module[v]
		}
		if err := verify.Check(in); err != nil {
			t.Fatalf("seed %d: exact result invalid: %v", seed, err)
		}
		greedy, err := SynthesizeBest(g, lib, cons, Config{})
		if err != nil {
			t.Fatalf("seed %d: greedy failed where exact succeeded: %v", seed, err)
		}
		if greedy.Datapath.FUArea < exact.FUArea-1e-9 {
			t.Fatalf("seed %d: greedy FU area %.1f beats the exact optimum %.1f",
				seed, greedy.Datapath.FUArea, exact.FUArea)
		}
		if greedy.Datapath.FUArea > exact.FUArea*1.4+1e-9 {
			t.Errorf("seed %d: greedy FU area %.1f vs optimum %.1f (gap > 40%%)",
				seed, greedy.Datapath.FUArea, exact.FUArea)
		}
		checked++
	}
	if checked < 6 {
		t.Fatalf("only %d instances checked", checked)
	}
}
