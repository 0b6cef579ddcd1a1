package sched

import (
	"errors"
	"testing"

	"pchls/internal/cdfg"
	"pchls/internal/library"
)

func TestMinResources(t *testing.T) {
	g := wide(t, 3)
	s, _ := ASAP(g, fastest(t))
	need := MinResources(s)
	if need[library.NameMulPar] != 3 {
		t.Fatalf("ASAP wide(3) needs %d parallel mults, want 3", need[library.NameMulPar])
	}
}

func TestForceDirectedValidAndResourceEfficient(t *testing.T) {
	g := wide(t, 3)
	bind := fastest(t)
	asap, _ := ASAP(g, bind)
	deadline := asap.Length() + 6
	s, err := ForceDirected(g, bind, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(0, deadline); err != nil {
		t.Fatalf("fds invalid: %v", err)
	}
	// With slack, FDS should need fewer concurrent multipliers than ASAP.
	if MinResources(s)[library.NameMulPar] >= MinResources(asap)[library.NameMulPar] {
		t.Fatalf("fds mults %d, asap mults %d — expected balancing",
			MinResources(s)[library.NameMulPar], MinResources(asap)[library.NameMulPar])
	}
}

func TestForceDirectedCriticalDeadline(t *testing.T) {
	g := chain(t)
	bind := fastest(t)
	asap, _ := ASAP(g, bind)
	s, err := ForceDirected(g, bind, asap.Length())
	if err != nil {
		t.Fatal(err)
	}
	if s.Length() != asap.Length() {
		t.Fatalf("fds at critical deadline has length %d, want %d", s.Length(), asap.Length())
	}
}

func TestForceDirectedImpossibleDeadline(t *testing.T) {
	g := chain(t)
	if _, err := ForceDirected(g, fastest(t), 2); !errors.Is(err, ErrDeadline) {
		t.Fatalf("fds = %v, want ErrDeadline", err)
	}
}

func TestForceDirectedEmptyGraph(t *testing.T) {
	g := cdfg.New("empty")
	s, err := ForceDirected(g, fastest(t), 5)
	if err != nil || s.Length() != 0 {
		t.Fatalf("fds on empty graph: %v, %d", err, s.Length())
	}
}

func TestTwoStepMeetsPowerWhenSlackAllows(t *testing.T) {
	g := wide(t, 3)
	bind := fastest(t)
	asap, _ := ASAP(g, bind)
	deadline := asap.Length() + 8
	pmax := 9.0
	s, err := TwoStep(g, bind, deadline, pmax)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(pmax, deadline); err != nil {
		t.Fatalf("twostep invalid: %v", err)
	}
}

func TestTwoStepUnconstrainedPower(t *testing.T) {
	g := chain(t)
	s, err := TwoStep(g, fastest(t), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(0, 10); err != nil {
		t.Fatal(err)
	}
}

func TestTwoStepSingleOpInfeasible(t *testing.T) {
	g := chain(t)
	_, err := TwoStep(g, fastest(t), 10, 5) // parallel mult draws 8.1
	if !errors.Is(err, ErrPowerInfeasible) {
		t.Fatalf("twostep = %v, want ErrPowerInfeasible", err)
	}
}

func TestTwoStepFailsWithoutSlack(t *testing.T) {
	g := wide(t, 3)
	bind := fastest(t)
	asap, _ := ASAP(g, bind)
	// At the critical-path deadline there is no slack to reorder; the
	// one-step algorithm (pasap) would also need more cycles, so the
	// baseline must report failure rather than a constraint-violating
	// schedule.
	_, err := TwoStep(g, bind, asap.Length(), 9.0)
	if err == nil {
		t.Fatal("twostep succeeded with zero slack under tight power cap")
	}
	if !errors.Is(err, ErrPowerCap) && !errors.Is(err, ErrDeadline) {
		t.Fatalf("twostep error = %v, want ErrPowerCap or ErrDeadline", err)
	}
}
