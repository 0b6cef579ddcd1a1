package pchls

// This file is the benchmark harness for the paper's evaluation artifacts:
// one benchmark per table and figure, plus ablation benches for the design
// choices documented in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// Reported custom metrics:
//
//	area        datapath area of the synthesized design (Table 1 units)
//	plateau     area at the loosest power budget of a Figure 2 curve
//	knee        tightest feasible power budget of a Figure 2 curve
//	ext%        battery lifetime extension of the capped schedule (Fig. 1)

import (
	"context"
	"runtime/pprof"
	"testing"

	"pchls/internal/clique"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// BenchmarkTable1FunctionalUnitLibrary regenerates Table 1: construction,
// validation and the selection queries the synthesizer performs against
// the paper's functional-unit library.
func BenchmarkTable1FunctionalUnitLibrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lib := Table1()
		if lib.Len() != 8 {
			b.Fatal("table 1 must have 8 modules")
		}
		for _, op := range []Op{Add, Sub, Cmp, Mul, Input, Output} {
			if _, err := lib.Fastest(op); err != nil {
				b.Fatal(err)
			}
			if _, err := lib.Smallest(op); err != nil {
				b.Fatal(err)
			}
			if _, err := lib.LowestPower(op); err != nil {
				b.Fatal(err)
			}
		}
		_ = lib.Table()
	}
}

// BenchmarkFigure1PowerSchedules regenerates Figure 1: the undesired
// (ASAP) versus desired (pasap-capped) power schedule of HAL and the
// battery-lifetime delta between them.
func BenchmarkFigure1PowerSchedules(b *testing.B) {
	g := MustBenchmark("hal")
	lib := Table1()
	var ext float64
	for i := 0; i < b.N; i++ {
		r, err := Figure1(g, lib, 12)
		if err != nil {
			b.Fatal(err)
		}
		if r.StatsC.Peak > 12 {
			b.Fatal("constrained schedule exceeds the cap")
		}
		ext = r.Kibam.ExtensionPercent()
	}
	b.ReportMetric(ext, "ext%")
}

// figure2Curve sweeps one Figure 2 curve on a coarse grid and reports its
// plateau area and feasibility knee.
func figure2Curve(b *testing.B, benchmark string, deadline int) {
	b.Helper()
	g := MustBenchmark(benchmark)
	lib := Table1()
	cfg := SweepConfig{PowerMin: 5, PowerMax: 60, Step: 5}
	var plateau, knee float64
	for i := 0; i < b.N; i++ {
		c, err := Sweep(g, lib, deadline, cfg)
		if err != nil {
			b.Fatal(err)
		}
		k, ok := c.Knee()
		if !ok {
			b.Fatalf("%s (T=%d): no feasible point", benchmark, deadline)
		}
		p, _ := c.PlateauArea()
		plateau, knee = p, k
	}
	b.ReportMetric(plateau, "plateau")
	b.ReportMetric(knee, "knee")
}

// The six curves of Figure 2.

func BenchmarkFigure2AreaVsPowerHalT10(b *testing.B)      { figure2Curve(b, "hal", 10) }
func BenchmarkFigure2AreaVsPowerHalT17(b *testing.B)      { figure2Curve(b, "hal", 17) }
func BenchmarkFigure2AreaVsPowerCosineT12(b *testing.B)   { figure2Curve(b, "cosine", 12) }
func BenchmarkFigure2AreaVsPowerCosineT15(b *testing.B)   { figure2Curve(b, "cosine", 15) }
func BenchmarkFigure2AreaVsPowerCosineT19(b *testing.B)   { figure2Curve(b, "cosine", 19) }
func BenchmarkFigure2AreaVsPowerEllipticT22(b *testing.B) { figure2Curve(b, "elliptic", 22) }

// BenchmarkSynthesize measures the one-pass synthesizer on every paper
// benchmark at a binding constraint point (deadline = critical path + 3,
// power cap = 80% of the unconstrained peak). The custom metrics expose
// the evaluation engine's work: full PASAP/PALAP scheduler runs, pinned
// incremental runs and window-cache hits per synthesis.
// results/BENCH_synthesize.json holds the recorded baseline.
func BenchmarkSynthesize(b *testing.B) {
	lib := Table1()
	for _, name := range []string{"hal", "cosine", "elliptic", "fir16", "ar", "diffeq2", "fft8"} {
		g := MustBenchmark(name)
		asap, err := ASAP(g, UniformFastest(lib))
		if err != nil {
			b.Fatal(err)
		}
		// Probe a binding but feasible cap: 80% of the unconstrained peak,
		// loosened in 10% steps when the point is infeasible (ar needs one
		// step). The probe runs outside the timer.
		cons := Constraints{Deadline: asap.Length() + 3, PowerMax: asap.PeakPower() * 0.8}
		for {
			if _, err := Synthesize(g, lib, cons, Config{}); err == nil {
				break
			}
			cons.PowerMax *= 1.1
			if cons.PowerMax > asap.PeakPower()*2 {
				b.Fatalf("%s: no feasible cap found", name)
			}
		}
		b.Run(name+"/incremental", func(b *testing.B) {
			b.ReportAllocs()
			var st Stats
			// pprof labels partition -cpuprofile/-memprofile samples by
			// benchmark graph (see DESIGN.md §10).
			pprof.Do(context.Background(), pprof.Labels("graph", name), func(context.Context) {
				for i := 0; i < b.N; i++ {
					d, err := Synthesize(g, lib, cons, Config{})
					if err != nil {
						b.Fatal(err)
					}
					st = d.Stats
				}
			})
			b.ReportMetric(float64(st.SchedulerRuns), "full-runs")
			b.ReportMetric(float64(st.IncrementalRuns), "pinned-runs")
			b.ReportMetric(float64(st.WindowCacheHits), "cache-hits")
		})
	}
}

// BenchmarkSynthesizeSinglePass measures the paper's one-pass algorithm on
// each benchmark at a representative constraint point.
func BenchmarkSynthesizeSinglePass(b *testing.B) {
	cases := []struct {
		name string
		T    int
		P    float64
	}{
		{"hal", 10, 20}, {"cosine", 15, 30}, {"elliptic", 22, 15},
	}
	lib := Table1()
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			g := MustBenchmark(tc.name)
			var area float64
			for i := 0; i < b.N; i++ {
				d, err := Synthesize(g, lib, Constraints{Deadline: tc.T, PowerMax: tc.P}, Config{})
				if err != nil {
					b.Fatal(err)
				}
				area = d.Area()
			}
			b.ReportMetric(area, "area")
		})
	}
}

// BenchmarkSynthesizePortfolio measures SynthesizeBest on the same points
// (the quality/runtime trade against the single pass).
func BenchmarkSynthesizePortfolio(b *testing.B) {
	cases := []struct {
		name string
		T    int
		P    float64
	}{
		{"hal", 10, 20}, {"cosine", 15, 30}, {"elliptic", 22, 15},
	}
	lib := Table1()
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			g := MustBenchmark(tc.name)
			var area float64
			for i := 0; i < b.N; i++ {
				d, err := SynthesizeBest(g, lib, Constraints{Deadline: tc.T, PowerMax: tc.P}, Config{})
				if err != nil {
					b.Fatal(err)
				}
				area = d.Area()
			}
			b.ReportMetric(area, "area")
		})
	}
}

// BenchmarkAnytimePortfolio measures the anytime portfolio layer
// (internal/portfolio: K perturbed passes + subgraph re-exploration) on a
// representative subset of benchmarks at the binding constraint point of
// BenchmarkSynthesize (deadline = critical path + 3, power cap = 80% of
// the unconstrained peak, loosened until feasible). Worker count and seed
// are pinned so allocs/op stays deterministic; the area metric records
// the QoR the portfolio converges to. results/BENCH_portfolio.json holds
// the recorded baseline for `make bench-compare`.
func BenchmarkAnytimePortfolio(b *testing.B) {
	lib := Table1()
	for _, name := range []string{"hal", "diffeq2", "fft8"} {
		g := MustBenchmark(name)
		asap, err := ASAP(g, UniformFastest(lib))
		if err != nil {
			b.Fatal(err)
		}
		cons := Constraints{Deadline: asap.Length() + 3, PowerMax: asap.PeakPower() * 0.8}
		for {
			if _, err := Synthesize(g, lib, cons, Config{}); err == nil {
				break
			}
			cons.PowerMax *= 1.1
			if cons.PowerMax > asap.PeakPower()*2 {
				b.Fatalf("%s: no feasible cap found", name)
			}
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var res *PortfolioResult
			for i := 0; i < b.N; i++ {
				r, err := SynthesizePortfolio(g, lib, cons, PortfolioConfig{
					K: 8, Budget: 2, Seed: 1, Workers: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(res.Design.Area(), "area")
			b.ReportMetric(res.BaselineArea, "baseline-area")
		})
	}
}

// BenchmarkAblationTwoStepBaseline compares the two-phase baseline
// (force-directed schedule, then power repair; refs [1][2] style) against
// the paper's one-step pasap on HAL across a power grid: the metric is the
// number of grid points each approach can schedule at all.
func BenchmarkAblationTwoStepBaseline(b *testing.B) {
	g := MustBenchmark("hal")
	lib := Table1()
	bindF := sched.UniformSmallest(lib)
	const deadline = 17
	grid := []float64{5.5, 6, 7, 8, 10, 12, 15, 20}
	var oneStepOK, twoStepOK int
	for i := 0; i < b.N; i++ {
		oneStepOK, twoStepOK = 0, 0
		for _, p := range grid {
			if s, err := sched.PASAP(g, bindF, sched.Options{PowerMax: p}); err == nil && s.Length() <= deadline {
				oneStepOK++
			}
			if _, err := sched.TwoStep(g, bindF, deadline, p); err == nil {
				twoStepOK++
			}
		}
	}
	if oneStepOK < twoStepOK {
		b.Fatalf("one-step solved %d grid points, two-step %d: expected one-step >= two-step", oneStepOK, twoStepOK)
	}
	b.ReportMetric(float64(oneStepOK), "pasap-feasible")
	b.ReportMetric(float64(twoStepOK), "twostep-feasible")
}

// BenchmarkAblationRepairDisabled measures how often the backtrack-and-
// lock repair rescues synthesis on a constraint grid (DESIGN.md ablation).
func BenchmarkAblationRepairDisabled(b *testing.B) {
	g := MustBenchmark("hal")
	lib := Table1()
	grid := []float64{5.5, 6, 8, 10, 14, 20}
	var withRepair, withoutRepair int
	for i := 0; i < b.N; i++ {
		withRepair, withoutRepair = 0, 0
		for _, p := range grid {
			cons := Constraints{Deadline: 17, PowerMax: p}
			if _, err := Synthesize(g, lib, cons, Config{}); err == nil {
				withRepair++
			}
			if _, err := Synthesize(g, lib, cons, Config{DisableRepair: true}); err == nil {
				withoutRepair++
			}
		}
	}
	if withRepair < withoutRepair {
		b.Fatal("repair should never lose feasible points")
	}
	b.ReportMetric(float64(withRepair), "with-repair")
	b.ReportMetric(float64(withoutRepair), "without-repair")
}

// BenchmarkAblationLibraryMultipliers synthesizes HAL T=17 with
// serial-only and parallel-only multiplier libraries (DESIGN.md library
// ablation): the mixed library must be at least as good as either.
func BenchmarkAblationLibraryMultipliers(b *testing.B) {
	g := MustBenchmark("hal")
	cons := Constraints{Deadline: 17, PowerMax: 10}
	full := Table1()
	serOnly, err := library.Table1Without(library.NameMulPar)
	if err != nil {
		b.Fatal(err)
	}
	parOnly, err := library.Table1Without(library.NameMulSer)
	if err != nil {
		b.Fatal(err)
	}
	var mixedArea, serArea, parArea float64
	for i := 0; i < b.N; i++ {
		d, err := SynthesizeBest(g, full, cons, Config{})
		if err != nil {
			b.Fatal(err)
		}
		mixedArea = d.Area()
		if d, err := SynthesizeBest(g, serOnly, cons, Config{}); err == nil {
			serArea = d.Area()
		}
		if d, err := SynthesizeBest(g, parOnly, cons, Config{}); err == nil {
			parArea = d.Area()
		}
	}
	b.ReportMetric(mixedArea, "mixed")
	b.ReportMetric(serArea, "serial-only")
	b.ReportMetric(parArea, "parallel-only")
}

// BenchmarkAblationALUMerging synthesizes HAL with and without the
// multi-function ALU module (DESIGN.md library ablation).
func BenchmarkAblationALUMerging(b *testing.B) {
	g := MustBenchmark("hal")
	cons := Constraints{Deadline: 17, PowerMax: 10}
	withALU := Table1()
	withoutALU, err := library.Table1Without(library.NameALU)
	if err != nil {
		b.Fatal(err)
	}
	var a1, a2 float64
	for i := 0; i < b.N; i++ {
		d1, err := SynthesizeBest(g, withALU, cons, Config{})
		if err != nil {
			b.Fatal(err)
		}
		d2, err := SynthesizeBest(g, withoutALU, cons, Config{})
		if err != nil {
			b.Fatal(err)
		}
		a1, a2 = d1.Area(), d2.Area()
	}
	b.ReportMetric(a1, "with-alu")
	b.ReportMetric(a2, "without-alu")
}

// BenchmarkCliquePartitioningHeuristics compares the greedy and
// Tseng-Siewiorek partitioners against the exact branch-and-bound oracle
// on small random compatibility graphs (DESIGN.md clique ablation).
func BenchmarkCliquePartitioningHeuristics(b *testing.B) {
	graphs := make([]*clique.Graph, 0, 16)
	seed := uint64(1)
	for k := 0; k < 16; k++ {
		g := clique.New(12)
		for i := 0; i < 12; i++ {
			for j := i + 1; j < 12; j++ {
				seed = seed*6364136223846793005 + 1442695040888963407
				if seed>>33%100 < 50 {
					g.SetCompatible(i, j)
				}
			}
		}
		graphs = append(graphs, g)
	}
	var greedyBlocks, tsBlocks, exactBlocks int
	for i := 0; i < b.N; i++ {
		greedyBlocks, tsBlocks, exactBlocks = 0, 0, 0
		for _, g := range graphs {
			greedyBlocks += len(clique.Greedy(g, nil))
			tsBlocks += len(clique.TsengSiewiorek(g))
			exact, err := clique.ExactMinCliques(g)
			if err != nil {
				b.Fatal(err)
			}
			exactBlocks += len(exact)
		}
	}
	b.ReportMetric(float64(greedyBlocks), "greedy-cliques")
	b.ReportMetric(float64(tsBlocks), "ts-cliques")
	b.ReportMetric(float64(exactBlocks), "exact-cliques")
}

// BenchmarkAblationStaticCliqueMode compares the incremental algorithm
// (windows re-derived after every decision, the paper's extension) against
// the static one-shot clique-partition formulation it extends, on a hal
// T=17 power grid: feasible points and area at a representative point.
func BenchmarkAblationStaticCliqueMode(b *testing.B) {
	g := MustBenchmark("hal")
	lib := Table1()
	grid := []float64{5.5, 6, 7, 8, 10, 14, 20}
	var incOK, staticOK int
	var incArea, staticArea float64
	for i := 0; i < b.N; i++ {
		incOK, staticOK = 0, 0
		for _, p := range grid {
			cons := Constraints{Deadline: 17, PowerMax: p}
			if d, err := Synthesize(g, lib, cons, Config{}); err == nil {
				incOK++
				if p == 10 {
					incArea = d.Area()
				}
			}
			if d, err := SynthesizeCliquePartition(g, lib, cons, Config{}); err == nil {
				staticOK++
				if p == 10 {
					staticArea = d.Area()
				}
			}
		}
	}
	if incOK < staticOK {
		b.Fatalf("incremental solved %d, static %d", incOK, staticOK)
	}
	b.ReportMetric(float64(incOK), "incremental-feasible")
	b.ReportMetric(float64(staticOK), "static-feasible")
	b.ReportMetric(incArea, "incremental-area@P10")
	b.ReportMetric(staticArea, "static-area@P10")
}

// BenchmarkAblationPASAPSelection compares the two readings of the paper's
// "pick an unscheduled operator" step — critical-path-first versus a plain
// topological sweep — by the pasap schedule length on cosine under a
// moderate power cap.
func BenchmarkAblationPASAPSelection(b *testing.B) {
	g := MustBenchmark("cosine")
	bindF := sched.UniformFastest(Table1())
	var critLen, plainLen int
	for i := 0; i < b.N; i++ {
		c, err := sched.PASAP(g, bindF, sched.Options{PowerMax: 40, Select: sched.CriticalFirst})
		if err != nil {
			b.Fatal(err)
		}
		p, err := sched.PASAP(g, bindF, sched.Options{PowerMax: 40, Select: sched.SmallestID})
		if err != nil {
			b.Fatal(err)
		}
		critLen, plainLen = c.Length(), p.Length()
	}
	if critLen > plainLen {
		b.Fatalf("critical-first %d cycles worse than plain %d", critLen, plainLen)
	}
	b.ReportMetric(float64(critLen), "critical-first-len")
	b.ReportMetric(float64(plainLen), "smallest-id-len")
}

// BenchmarkTimeSweep measures the orthogonal latency sweep (area versus T
// at fixed P<), the other axis of the paper's time-power design space.
func BenchmarkTimeSweep(b *testing.B) {
	g := MustBenchmark("hal")
	lib := Table1()
	var minT int
	for i := 0; i < b.N; i++ {
		c, err := TimeSweep(g, lib, 8, TimeSweepConfig{TMin: 8, TMax: 26, Step: 2})
		if err != nil {
			b.Fatal(err)
		}
		t, ok := c.MinFeasibleDeadline()
		if !ok {
			b.Fatal("no feasible deadline")
		}
		minT = t
	}
	b.ReportMetric(float64(minT), "min-T@P8")
}

// BenchmarkAblationAnnealingBaseline compares the meta-heuristic baseline
// family of the paper's related work (simulated annealing) against the
// constructive pasap: same constraints, wall time and resulting makespan.
func BenchmarkAblationAnnealingBaseline(b *testing.B) {
	g := MustBenchmark("hal")
	lib := Table1()
	bindF := sched.UniformFastest(lib)
	const T, P = 15, 14
	var pasapLen, annealLen int
	for i := 0; i < b.N; i++ {
		ps, err := sched.PASAP(g, bindF, sched.Options{PowerMax: P})
		if err != nil {
			b.Fatal(err)
		}
		sa, err := sched.Anneal(g, bindF, lib, T, P, sched.AnnealConfig{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		pasapLen, annealLen = ps.Length(), sa.Length()
	}
	b.ReportMetric(float64(pasapLen), "pasap-len")
	b.ReportMetric(float64(annealLen), "anneal-len")
}

// BenchmarkTimePowerSurface explores the (T x P<) grid of HAL — the
// "different regions in the time-power-constraint space" of the paper's
// conclusion — and reports the Pareto-front size.
func BenchmarkTimePowerSurface(b *testing.B) {
	g := MustBenchmark("hal")
	lib := Table1()
	cfg := SurfaceConfig{
		Deadlines:  []int{8, 10, 12, 14, 17},
		Powers:     []float64{6, 8, 12, 17, 25, 40},
		SinglePass: true,
	}
	var front int
	for i := 0; i < b.N; i++ {
		s, err := ExploreSurface(g, lib, cfg)
		if err != nil {
			b.Fatal(err)
		}
		front = len(s.ParetoFront())
	}
	if front == 0 {
		b.Fatal("empty pareto front")
	}
	b.ReportMetric(float64(front), "pareto-points")
}

// BenchmarkBatterySweep measures the lifetime-extension sweep behind the
// Figure 1 motivation.
func BenchmarkBatterySweep(b *testing.B) {
	g := MustBenchmark("hal")
	lib := Table1()
	caps := []float64{9, 12, 16, 20, 28, 40}
	var best float64
	for i := 0; i < b.N; i++ {
		c, err := BatterySweep(g, lib, caps)
		if err != nil {
			b.Fatal(err)
		}
		if p, ok := c.BestExtension(); ok {
			best = p.KibamExt
		}
	}
	b.ReportMetric(best, "best-ext%")
}

// BenchmarkPipelineExplore measures the pipelined (modulo-scheduled)
// throughput sweep — the loop-folded extension beyond the paper.
func BenchmarkPipelineExplore(b *testing.B) {
	g := MustBenchmark("hal")
	lib := Table1()
	bindF := sched.UniformFastest(lib)
	var minII int
	for i := 0; i < b.N; i++ {
		results, err := PipelineExplore(g, bindF, lib, 16, 24, 20)
		if err != nil {
			b.Fatal(err)
		}
		minII = results[0].II
	}
	b.ReportMetric(float64(minII), "min-II@P20")
}

// BenchmarkFSMDSimulation measures the cycle-accurate FSMD simulator.
func BenchmarkFSMDSimulation(b *testing.B) {
	d, err := Synthesize(MustBenchmark("elliptic"), Table1(), Constraints{Deadline: 22, PowerMax: 15}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]int64{}
	for _, n := range d.Graph.Nodes() {
		if n.Op == Input {
			inputs[n.Name] = int64(n.ID) * 3
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyDesign(d, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPASAPScheduler measures the raw power-constrained scheduler on
// the largest benchmark.
func BenchmarkPASAPScheduler(b *testing.B) {
	g := MustBenchmark("elliptic")
	bindF := sched.UniformFastest(Table1())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.PASAP(g, bindF, sched.Options{PowerMax: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerilogEmission measures the RTL back end.
func BenchmarkVerilogEmission(b *testing.B) {
	d, err := Synthesize(MustBenchmark("elliptic"), Table1(), Constraints{Deadline: 22, PowerMax: 15}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EmitVerilog(d, 16); err != nil {
			b.Fatal(err)
		}
	}
}
