// Command cdfgtool inspects and converts data-flow graphs.
//
// Usage:
//
//	cdfgtool stats  <benchmark|file.cdfg>      # node/edge/op statistics
//	cdfgtool dot    <benchmark|file.cdfg>      # DOT export to stdout
//	cdfgtool text   <benchmark|file.cdfg>      # .cdfg text to stdout
//	cdfgtool sched  <benchmark|file.cdfg> -T N # ASAP/ALAP mobility table
//	cdfgtool gen    -n 30 -seed 7              # random layered DAG
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"pchls"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	switch cmd {
	case "stats":
		g := load(args)
		printStats(g)
	case "dot":
		g := load(args)
		fmt.Print(g.Dot(nil))
	case "text":
		g := load(args)
		fmt.Print(g.Text())
	case "sched":
		fs := flag.NewFlagSet("sched", flag.ExitOnError)
		deadline := fs.Int("T", 0, "deadline (default: critical path)")
		fs.Parse(argsAfterTarget(args))
		g := load(args)
		printSched(g, *deadline)
	case "gen":
		fs := flag.NewFlagSet("gen", flag.ExitOnError)
		n := fs.Int("n", 20, "number of computation nodes")
		seed := fs.Int64("seed", 1, "generator seed")
		width := fs.Int("width", 4, "max nodes per layer")
		mul := fs.Float64("mul", 0.3, "multiply fraction of the op mix")
		cmp := fs.Float64("cmp", 0.1, "compare fraction of the op mix")
		edges := fs.Float64("edges", 0.5, "edge density in [0,1]: chance of a second predecessor per node")
		libOut := fs.String("libout", "", "also generate a random library: write it to this file (\"-\" = stdout)")
		modsPerOp := fs.Int("mods", 2, "with -libout: max alternative modules per operation")
		delayMax := fs.Int("delaymax", 3, "with -libout: max module delay in cycles")
		powMin := fs.Float64("pmin", 0.5, "with -libout: min per-cycle module power")
		powMax := fs.Float64("pmax", 8, "with -libout: max per-cycle module power")
		levels := fs.Int("levels", 1, "with -libout: voltage operating points per computation module (<=1 = single-level)")
		preset := fs.String("preset", "", "graph-shape preset: chain|wide|layered|mixed|blocks (explicit shape flags override the recipe)")
		blocks := fs.Int("blocks", 0, "split the computations into this many disjoint blocks (<=1 = single block)")
		connect := fs.Bool("connect", false, "bridge weakly-connected components with minimum extra edges: guarantees a single-component graph")
		fs.Parse(args)
		cfg := gen.GraphConfig{
			Nodes: *n, MaxWidth: *width, EdgeDensity: *edges,
			MulFraction: *mul, CmpFraction: *cmp, Blocks: *blocks,
			Connect: *connect,
		}
		if *preset != "" {
			pc, err := gen.PresetConfig(gen.Preset(*preset), *n)
			if err != nil {
				fatal(err)
			}
			// Flags given explicitly on the command line override the
			// preset's recipe knobs.
			fs.Visit(func(f *flag.Flag) {
				switch f.Name {
				case "width":
					pc.MaxWidth = *width
				case "edges":
					pc.EdgeDensity = *edges
				case "mul":
					pc.MulFraction = *mul
				case "cmp":
					pc.CmpFraction = *cmp
				case "blocks":
					pc.Blocks = *blocks
				case "connect":
					pc.Connect = *connect
				}
			})
			cfg = pc
		}
		g := gen.Graph(*seed, cfg)
		fmt.Print(g.Text())
		if *libOut != "" {
			lib := gen.Library(*seed, gen.LibraryConfig{
				ModulesPerOp: *modsPerOp, DelayMax: *delayMax,
				PowerMin: *powMin, PowerMax: *powMax, Levels: *levels,
			})
			if *libOut == "-" {
				fmt.Print(lib.Text())
			} else if err := os.WriteFile(*libOut, []byte(lib.Text()), 0o644); err != nil {
				fatal(err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote %s\n", *libOut)
			}
		}
	case "pipeline":
		fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
		maxII := fs.Int("maxii", 16, "largest initiation interval to try")
		deadline := fs.Int("T", 0, "latency bound (default: critical path + 8)")
		powerMax := fs.Float64("P", 0, "folded per-cycle power cap (0 = unconstrained)")
		fs.Parse(argsAfterTarget(args))
		g := load(args)
		runPipeline(g, *maxII, *deadline, *powerMax)
	case "verify":
		fs := flag.NewFlagSet("verify", flag.ExitOnError)
		deadline := fs.Int("T", 0, "deadline (default: critical path + 4)")
		powerMax := fs.Float64("P", 0, "power constraint (0 = unconstrained)")
		trials := fs.Int("trials", 10, "random input vectors to check")
		seed := fs.Int64("seed", 1, "input generator seed")
		fs.Parse(argsAfterTarget(args))
		g := load(args)
		runVerify(g, *deadline, *powerMax, *trials, *seed)
	default:
		usage()
	}
}

// runPipeline prints the pipelined throughput/area/power trade-off.
func runPipeline(g *pchls.Graph, maxII, deadline int, powerMax float64) {
	lib := pchls.Table1()
	bind := pchls.UniformFastest(lib)
	if deadline <= 0 {
		asap, err := pchls.ASAP(g, bind)
		if err != nil {
			fatal(err)
		}
		deadline = asap.Length() + 8
	}
	results, err := pchls.PipelineExplore(g, bind, lib, maxII, deadline, powerMax)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pipelined implementations of %q (T=%d, P<=%g):\n", g.Name, deadline, powerMax)
	fmt.Printf("%4s %10s %10s %10s\n", "II", "latency", "peak", "FU area")
	for _, r := range results {
		fmt.Printf("%4d %10d %10.2f %10.1f\n", r.II, r.Schedule.Length(), r.PeakPower(), r.FUArea)
	}
}

// runVerify synthesizes the graph and checks the generated FSMD against
// direct data-flow evaluation on random inputs.
func runVerify(g *pchls.Graph, deadline int, powerMax float64, trials int, seed int64) {
	lib := pchls.Table1()
	if deadline <= 0 {
		asap, err := pchls.ASAP(g, pchls.UniformFastest(lib))
		if err != nil {
			fatal(err)
		}
		deadline = asap.Length() + 4
	}
	d, err := pchls.SynthesizeBest(g, lib, pchls.Constraints{Deadline: deadline, PowerMax: powerMax}, pchls.Config{})
	if err != nil {
		fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		inputs := map[string]int64{}
		for _, n := range g.Nodes() {
			if n.Op == cdfg.Input {
				inputs[n.Name] = int64(rng.Intn(2000) - 1000)
			}
		}
		if err := pchls.VerifyDesign(d, inputs); err != nil {
			fatal(fmt.Errorf("trial %d: %w", trial, err))
		}
	}
	fmt.Printf("%s: design (T=%d, P<=%g, area %.1f) verified on %d random input vectors\n",
		g.Name, deadline, powerMax, d.Area(), trials)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cdfgtool <stats|dot|text|sched|gen> [target] [flags]
  stats <g>        node/edge/operation statistics
  dot   <g>        Graphviz DOT to stdout
  text  <g>        .cdfg text format to stdout
  sched <g> -T N   ASAP/ALAP mobility table under Table 1
  gen -n N -seed S [-preset P] [-blocks B] [-connect] [-edges D] [-mul F] [-cmp F] [-libout F] [-levels K]
                   seeded random DAG to stdout (optionally + random library,
                   with K voltage levels per module); presets: chain, wide,
                   layered, mixed, blocks
  verify <g> [-T N] [-P W] [-trials K]  synthesize + check FSMD vs evaluation
  pipeline <g> [-maxii N] [-T N] [-P W] pipelined II/area/power trade-off
<g> is a benchmark name (hal, cosine, elliptic, fir16, ar, diffeq2) or a .cdfg file.`)
	os.Exit(2)
}

func load(args []string) *pchls.Graph {
	if len(args) < 1 {
		usage()
	}
	arg := args[0]
	if g, err := pchls.Benchmark(arg); err == nil {
		return g
	}
	f, err := os.Open(arg)
	if err != nil {
		fatal(fmt.Errorf("%q is neither a benchmark nor a readable file: %w", arg, err))
	}
	defer f.Close()
	g, err := pchls.ParseGraph(f)
	if err != nil {
		fatal(err)
	}
	return g
}

func argsAfterTarget(args []string) []string {
	if len(args) <= 1 {
		return nil
	}
	return args[1:]
}

func printStats(g *pchls.Graph) {
	fmt.Printf("graph %q: %d nodes, %d edges\n", g.Name, g.N(), g.E())
	counts := g.OpCounts()
	ops := make([]cdfg.Op, 0, len(counts))
	for op := range counts {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		fmt.Printf("  %-4s %d\n", op, counts[op])
	}
	lib := pchls.Table1()
	fast, _ := pchls.ASAP(g, pchls.UniformFastest(lib))
	slow, _ := pchls.ASAP(g, pchls.UniformSmallest(lib))
	fmt.Printf("critical path: %d cycles (fastest modules), %d cycles (smallest modules)\n",
		fast.Length(), slow.Length())
	fmt.Printf("sources: %d, sinks: %d\n", len(g.Sources()), len(g.Sinks()))
}

func printSched(g *pchls.Graph, deadline int) {
	lib := pchls.Table1()
	bind := pchls.UniformFastest(lib)
	asap, err := pchls.ASAP(g, bind)
	if err != nil {
		fatal(err)
	}
	if deadline <= 0 {
		deadline = asap.Length()
	}
	alap, err := pchls.ALAP(g, bind, deadline)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-10s %-5s %6s %6s %9s\n", "node", "op", "asap", "alap", "mobility")
	for _, n := range g.Nodes() {
		fmt.Printf("%-10s %-5s %6d %6d %9d\n", n.Name, n.Op, asap.Start[n.ID], alap.Start[n.ID], alap.Start[n.ID]-asap.Start[n.ID])
	}
	fmt.Printf("deadline %d, critical path %d\n", deadline, asap.Length())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cdfgtool:", err)
	os.Exit(1)
}
