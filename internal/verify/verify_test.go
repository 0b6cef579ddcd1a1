package verify_test

import (
	"errors"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/core"
	"pchls/internal/library"
	"pchls/internal/verify"
)

// TestValidatorImportIndependence enforces the package's charter: the
// validator must re-derive every invariant without the engine's code in
// its import graph, so a bug shared by core/sched and verify cannot pass
// silently. It parses every non-test source file of internal/verify and
// rejects any import of internal/core or internal/sched (directly;
// transitive independence follows because cdfg and library import
// neither).
func TestValidatorImportIndependence(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := []string{"pchls/internal/core", "pchls/internal/sched"}
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		checked++
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, bad := range forbidden {
				if path == bad {
					t.Errorf("%s imports %s: the validator must stay independent of the engine", name, bad)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test source files found; is the test running in the package directory?")
	}
}

// validInput synthesizes a benchmark and flattens the design, giving the
// tests a known-good input to corrupt.
func validInput(t *testing.T, name string, deadline int, powerMax float64) verify.Input {
	t.Helper()
	g, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.SynthesizeBest(g, library.Table1(), core.Constraints{Deadline: deadline, PowerMax: powerMax}, core.Config{Workers: 1})
	if err != nil {
		t.Fatalf("synthesize %s: %v", name, err)
	}
	return core.VerifyInput(d)
}

func TestCheckAcceptsEngineDesigns(t *testing.T) {
	cases := []struct {
		bench    string
		deadline int
		powerMax float64
	}{
		{"hal", 10, 0},
		{"hal", 10, 20},
		{"hal", 17, 7.5},
		{"cosine", 20, 40},
		{"elliptic", 24, 30},
		{"diffeq2", 16, 0},
	}
	for _, c := range cases {
		t.Run(c.bench+"-T"+strconv.Itoa(c.deadline), func(t *testing.T) {
			in := validInput(t, c.bench, c.deadline, c.powerMax)
			if err := verify.Check(in); err != nil {
				t.Errorf("validator rejected a correct design (T=%d, P<=%g): %v", c.deadline, c.powerMax, err)
			}
		})
	}
}

func TestCheckShapeErrors(t *testing.T) {
	base := validInput(t, "hal", 10, 20)

	t.Run("nil graph", func(t *testing.T) {
		in := base.Clone()
		in.Graph = nil
		if err := verify.Check(in); !errors.Is(err, verify.ErrShape) {
			t.Errorf("got %v, want ErrShape", err)
		}
	})
	t.Run("short start slice", func(t *testing.T) {
		in := base.Clone()
		in.Start = in.Start[:len(in.Start)-1]
		if err := verify.Check(in); !errors.Is(err, verify.ErrShape) {
			t.Errorf("got %v, want ErrShape", err)
		}
	})
	t.Run("unknown module name", func(t *testing.T) {
		in := base.Clone()
		in.Module[0] = "no-such-module"
		if err := verify.Check(in); !errors.Is(err, verify.ErrShape) {
			t.Errorf("got %v, want ErrShape", err)
		}
	})
	t.Run("instance index out of range", func(t *testing.T) {
		in := base.Clone()
		in.FU[0] = len(in.FUModules)
		if err := verify.Check(in); !errors.Is(err, verify.ErrShape) {
			t.Errorf("got %v, want ErrShape", err)
		}
	})
	t.Run("unknown instance module", func(t *testing.T) {
		in := base.Clone()
		in.FUModules[0] = "ghost"
		if err := verify.Check(in); !errors.Is(err, verify.ErrShape) {
			t.Errorf("got %v, want ErrShape", err)
		}
	})
	t.Run("non-positive deadline", func(t *testing.T) {
		in := base.Clone()
		in.Deadline = 0
		if err := verify.Check(in); !errors.Is(err, verify.ErrShape) {
			t.Errorf("got %v, want ErrShape", err)
		}
	})
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprintf("power cap %g", p), func(t *testing.T) {
			in := base.Clone()
			in.PowerMax = p
			if err := verify.Check(in); !errors.Is(err, verify.ErrShape) {
				t.Errorf("got %v, want ErrShape", err)
			}
		})
	}
}

// TestCheckReportsAllViolations confirms violations of independent
// classes are reported together, not first-failure-only.
func TestCheckReportsAllViolations(t *testing.T) {
	in := validInput(t, "hal", 10, 20)
	in.ReportedFUArea += 100 // area accounting
	in.Start[0] = -1         // negative start
	in.Deadline = 1          // makespan now exceeds T
	err := verify.Check(in)
	for _, want := range []error{verify.ErrArea, verify.ErrPrecedence, verify.ErrDeadline} {
		if !errors.Is(err, want) {
			t.Errorf("joined error misses %v; got: %v", want, err)
		}
	}
}
