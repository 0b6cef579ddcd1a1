package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
	"pchls/internal/runner"
	"pchls/internal/sched"
)

// goldenBenchmarks are the seven paper benchmarks.
var goldenBenchmarks = []string{"hal", "cosine", "elliptic", "fir16", "ar", "diffeq2", "fft8"}

// goldenGrid reproduces, per benchmark, the union of the (T, P<) grid
// points the exploration surfaces in explore/parallel_test.go exercise:
// the Figure 2 power sweep at T = cp+3, the time sweep at P = 0.8*peak,
// and the 3x3 surface grid. The power values are accumulated with the
// same repeated additions the sweep engine uses, so they are
// bit-identical to the explored points.
func goldenGrid(cp int, peak float64) []Constraints {
	var grid []Constraints
	for p := peak / 4; p <= peak*1.25+1e-9; p += peak / 4 {
		grid = append(grid, Constraints{Deadline: cp + 3, PowerMax: p})
	}
	for T := cp; T <= cp+4; T += 2 {
		grid = append(grid, Constraints{Deadline: T, PowerMax: peak * 0.8})
	}
	for _, T := range []int{cp, cp + 2, cp + 5} {
		for _, p := range []float64{peak * 0.5, peak * 0.8, peak * 1.1} {
			grid = append(grid, Constraints{Deadline: T, PowerMax: p})
		}
	}
	return grid
}

// requireSameDesign compares a cached synthesis outcome with its
// coldWindows reference for byte-identical equivalence: same error
// disposition, identical serialized design, identical decision log,
// identical report.
func requireSameDesign(t *testing.T, label string, inc, cold *Design, incErr, coldErr error) {
	t.Helper()
	if (incErr != nil) != (coldErr != nil) {
		t.Fatalf("%s: error disposition diverges:\n  cached: %v\n  cold:   %v", label, incErr, coldErr)
	}
	if incErr != nil {
		return
	}
	ij, err := inc.JSON()
	if err != nil {
		t.Fatalf("%s: cached JSON: %v", label, err)
	}
	cj, err := cold.JSON()
	if err != nil {
		t.Fatalf("%s: cold JSON: %v", label, err)
	}
	if !bytes.Equal(ij, cj) {
		t.Fatalf("%s: serialized designs diverge:\n--- cached ---\n%s\n--- cold ---\n%s", label, ij, cj)
	}
	if !reflect.DeepEqual(inc.Decisions, cold.Decisions) {
		t.Fatalf("%s: decision logs diverge:\n  cached: %+v\n  cold:   %+v", label, inc.Decisions, cold.Decisions)
	}
	if ir, cr := inc.Report(), cold.Report(); ir != cr {
		t.Fatalf("%s: reports diverge:\n--- cached ---\n%s\n--- cold ---\n%s", label, ir, cr)
	}
}

// TestGoldenEquivalence gates the window cache: for every benchmark ×
// (T, P<) grid point exercised by the exploration test surfaces, under
// Table 1 and under the expanded 3-level DVS library the classic benchmark
// workload pairs with it, the cached run and its coldWindows reference
// must produce byte-identical serialized designs and decision logs (or
// fail identically). The expanded library is where override windows
// dominate the cache.
func TestGoldenEquivalence(t *testing.T) {
	for bi, name := range goldenBenchmarks {
		dvs, err := gen.Library(int64(1000+bi), gen.LibraryConfig{Levels: 3}).Expand()
		if err != nil {
			t.Fatal(err)
		}
		libs := []*library.Library{library.Table1(), dvs}
		t.Run(name, func(t *testing.T) {
			g, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for li, lib := range libs {
				asap, err := sched.ASAP(g, sched.UniformFastest(lib))
				if err != nil {
					t.Fatal(err)
				}
				for _, cons := range goldenGrid(asap.Length(), asap.PeakPower()) {
					label := fmt.Sprintf("%s lib%d T=%d P<=%g", name, li, cons.Deadline, cons.PowerMax)
					inc, incErr := Synthesize(g, lib, cons, Config{})
					cold, coldErr := Synthesize(g, lib, cons, Config{coldWindows: true})
					requireSameDesign(t, label, inc, cold, incErr, coldErr)
				}
			}
		})
	}
}

// TestGoldenEquivalenceUnconstrained is the differential gate behind the
// uncapped window rule (useSDC): without a power cap the default run
// derives its windows from the SDC bounds, and it must match the cold
// exhaustive pasap/palap reference byte for byte — single pass and
// SynthesizeBest, under Table 1 and under the expanded 3-level DVS
// library, at the critical path and two looser deadlines.
func TestGoldenEquivalenceUnconstrained(t *testing.T) {
	ref := Config{windows: windowsExhaustive, coldWindows: true}
	for bi, name := range goldenBenchmarks {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		dvs, err := gen.Library(int64(1000+bi), gen.LibraryConfig{Levels: 3}).Expand()
		if err != nil {
			t.Fatal(err)
		}
		for li, lib := range []*library.Library{library.Table1(), dvs} {
			asap, err := sched.ASAP(g, sched.UniformFastest(lib))
			if err != nil {
				t.Fatal(err)
			}
			for _, T := range []int{asap.Length(), asap.Length() + 3, asap.Length() + 8} {
				cons := Constraints{Deadline: T}
				label := fmt.Sprintf("%s lib%d T=%d unconstrained", name, li, T)
				d, dErr := Synthesize(g, lib, cons, Config{})
				if dErr == nil && d.Stats.SDCDerivations == 0 {
					t.Fatalf("%s: default run did not take the SDC derivation", label)
				}
				cold, coldErr := Synthesize(g, lib, cons, ref)
				if coldErr == nil && cold.Stats.SDCDerivations != 0 {
					t.Fatalf("%s: reference run took the SDC derivation", label)
				}
				requireSameDesign(t, label, d, cold, dErr, coldErr)
				best, bestErr := SynthesizeBest(g, lib, cons, Config{})
				coldBest, coldBestErr := SynthesizeBest(g, lib, cons, ref)
				requireSameDesign(t, label+" best", best, coldBest, bestErr, coldBestErr)
			}
		}
	}
}

// TestGoldenEquivalencePortfolio runs the SynthesizeBest meta-heuristic
// (portfolio + peak-shaving ladder) cached and cold: every internal run
// must agree, so the winning design must too.
func TestGoldenEquivalencePortfolio(t *testing.T) {
	lib := library.Table1()
	g := bench.HAL()
	for _, p := range []float64{5, 10, 20, 30} {
		cons := Constraints{Deadline: 17, PowerMax: p}
		label := fmt.Sprintf("hal best T=17 P<=%g", p)
		inc, incErr := SynthesizeBest(g, lib, cons, Config{})
		cold, coldErr := SynthesizeBest(g, lib, cons, Config{coldWindows: true})
		requireSameDesign(t, label, inc, cold, incErr, coldErr)
	}
}

// TestGoldenEquivalenceParallelGrid replays the full benchmark × grid
// equivalence matrix with every point synthesized concurrently (both the
// cached and the cold run inside each worker), sharing one graph
// and one library across all workers, and requires the results to be
// byte-identical to a serial rerun. This is the aliasing gate for the
// scratch-reuse optimizations: per-state arenas, flat window tables and
// lookup slices must never leak between concurrent syntheses. Run under
// -race this emulates what Sweep/ExploreSurface do through runner.Map
// (the facade itself cannot be imported here without a cycle).
func TestGoldenEquivalenceParallelGrid(t *testing.T) {
	lib := library.Table1()
	type point struct {
		g    *cdfg.Graph
		name string
		cons Constraints
	}
	var points []point
	for _, name := range goldenBenchmarks {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		asap, err := sched.ASAP(g, sched.UniformFastest(lib))
		if err != nil {
			t.Fatal(err)
		}
		for _, cons := range goldenGrid(asap.Length(), asap.PeakPower()) {
			points = append(points, point{g: g, name: name, cons: cons})
		}
	}
	type outcome struct {
		incJSON, coldJSON []byte
		incErr, coldErr   error
	}
	run := func(workers int) []outcome {
		res, err := runner.Map(context.Background(), len(points), runner.Config{Workers: workers},
			func(_ context.Context, i int) (outcome, error) {
				p := points[i]
				var o outcome
				var inc, cold *Design
				inc, o.incErr = Synthesize(p.g, lib, p.cons, Config{})
				cold, o.coldErr = Synthesize(p.g, lib, p.cons, Config{coldWindows: true})
				if o.incErr == nil {
					if o.incJSON, o.incErr = inc.JSON(); o.incErr != nil {
						return o, o.incErr
					}
				}
				if o.coldErr == nil {
					if o.coldJSON, o.coldErr = cold.JSON(); o.coldErr != nil {
						return o, o.coldErr
					}
				}
				return o, nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	parallel := run(8)
	serial := run(1)
	for i, p := range points {
		label := fmt.Sprintf("%s T=%d P<=%g", p.name, p.cons.Deadline, p.cons.PowerMax)
		if (parallel[i].incErr != nil) != (serial[i].incErr != nil) ||
			(parallel[i].coldErr != nil) != (serial[i].coldErr != nil) {
			t.Fatalf("%s: parallel/serial error disposition diverges: %v/%v vs %v/%v",
				label, parallel[i].incErr, parallel[i].coldErr, serial[i].incErr, serial[i].coldErr)
		}
		if !bytes.Equal(parallel[i].incJSON, serial[i].incJSON) {
			t.Fatalf("%s: cached design differs between parallel and serial run", label)
		}
		if !bytes.Equal(parallel[i].coldJSON, serial[i].coldJSON) {
			t.Fatalf("%s: cold design differs between parallel and serial run", label)
		}
		if parallel[i].incErr == nil && !bytes.Equal(parallel[i].incJSON, parallel[i].coldJSON) {
			t.Fatalf("%s: cached and cold designs diverge under concurrency", label)
		}
	}
}

// TestGoldenEquivalenceCliqueMode pins the static clique-partitioning
// baseline, whose packing places on the engine's profile (audited against
// a from-scratch rebuild on the cold side).
func TestGoldenEquivalenceCliqueMode(t *testing.T) {
	lib := library.Table1()
	for _, name := range goldenBenchmarks {
		g, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		asap, err := sched.ASAP(g, sched.UniformFastest(lib))
		if err != nil {
			t.Fatal(err)
		}
		cons := Constraints{Deadline: asap.Length() + 3, PowerMax: asap.PeakPower() * 0.8}
		label := fmt.Sprintf("%s clique T=%d P<=%g", name, cons.Deadline, cons.PowerMax)
		inc, incErr := SynthesizeCliquePartition(g, lib, cons, Config{})
		cold, coldErr := SynthesizeCliquePartition(g, lib, cons, Config{coldWindows: true})
		requireSameDesign(t, label, inc, cold, incErr, coldErr)
	}
}
