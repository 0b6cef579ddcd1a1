package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
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

// coldDiffInstance derives one random instance of the cached-engine
// differential: 6–45 nodes in 1–3 blocks, a deadline slack of 1.0–1.8 over
// the fastest-module critical path and a cap of 1.0–2.5 × the power floor,
// each read from a [0, 1) fraction. Fractions near 1 are the loose end.
func coldDiffInstance(seed int64, nodes, blocks int, slack, factor float64) gen.Instance {
	s, p := 1+0.8*slack, 1+1.5*factor
	return gen.NewInstance(seed, gen.InstanceConfig{
		Graph:    gen.GraphConfig{Nodes: 6 + nodes%40, Blocks: 1 + blocks%3},
		SlackMin: s, SlackMax: s, PowerFactorMin: p, PowerFactorMax: p,
	})
}

// coldDiffConfigs are the search variants the differential runs: the
// default, seeded weight jitter with shuffled ties, late placement, no
// area descent and no repair.
func coldDiffConfigs(seed int64) []Config {
	return []Config{
		{},
		{Perturb: Perturb{Seed: seed, Jitter: 0.2, ShuffleTies: true}},
		{Perturb: Perturb{PlaceLate: true}},
		{SkipAreaDescent: true},
		{DisableRepair: true},
	}
}

// requireColdEquivalent synthesizes inst under cfg with the window cache
// and with its coldWindows reference and requires identical outcomes. It
// reports whether the run was feasible.
func requireColdEquivalent(t *testing.T, label string, inst gen.Instance, cfg Config) bool {
	t.Helper()
	cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
	d, err := Synthesize(inst.Graph, inst.Library, cons, cfg)
	cold := cfg
	cold.coldWindows = true
	c, cErr := Synthesize(inst.Graph, inst.Library, cons, cold)
	requireSameDesign(t, label, d, c, err, cErr)
	return err == nil
}

// TestColdWindowsRandomDifferential gates the window cache on random
// graphs, where the TestGoldenEquivalence* suites run only the fixed
// benchmarks: every instance, under every search variant, must give the
// design (or the error) of its coldWindows reference. The square roots
// bias the draws toward the loose end, where most points are feasible
// and whole commit sequences get compared.
func TestColdWindowsRandomDifferential(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 60
	}
	runs, feasible := 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := coldDiffInstance(seed, int(seed), int(seed/40), math.Sqrt(rng.Float64()), math.Sqrt(rng.Float64()))
		for ci, cfg := range coldDiffConfigs(seed) {
			label := fmt.Sprintf("seed %d config %d n=%d T=%d P<=%g", seed, ci, inst.Graph.N(), inst.Deadline, inst.PowerMax)
			runs++
			if requireColdEquivalent(t, label, inst, cfg) {
				feasible++
			}
		}
	}
	t.Logf("%d runs, %d feasible", runs, feasible)
	if feasible < runs/4 {
		t.Fatalf("only %d/%d runs feasible; the sweep compares too few commit sequences", feasible, runs)
	}
}

// FuzzColdWindows explores the parameters of
// TestColdWindowsRandomDifferential: any instance under any search
// variant must synthesize identically with and without the window cache.
func FuzzColdWindows(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(0), uint8(200), uint8(200), uint8(0))
	f.Add(int64(2), uint8(39), uint8(2), uint8(40), uint8(60), uint8(1))
	f.Add(int64(3), uint8(25), uint8(1), uint8(255), uint8(0), uint8(2))
	f.Add(int64(4), uint8(0), uint8(1), uint8(0), uint8(255), uint8(3))
	f.Add(int64(5), uint8(33), uint8(2), uint8(128), uint8(128), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nodes, blocks, slack, factor, variant uint8) {
		inst := coldDiffInstance(seed, int(nodes), int(blocks), float64(slack)/256, float64(factor)/256)
		cfgs := coldDiffConfigs(seed)
		requireColdEquivalent(t, fmt.Sprintf("variant %d", variant), inst, cfgs[int(variant)%len(cfgs)])
	})
}
