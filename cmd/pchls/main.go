// Command pchls synthesizes a data-flow graph under latency and per-cycle
// power constraints and reports the resulting design.
//
// Usage:
//
//	pchls -g hal -T 10 -P 20
//	pchls -g hal -T 10 -P 20 -portfolio 8 -budget 2 -seed 1
//	pchls -g design.cdfg -lib mylib.txt -T 12 -P 40 -verilog out.v -dot out.dot
//	pchls -print-lib
//
// The -g argument is either a built-in benchmark name (hal, cosine,
// elliptic, fir16, ar, diffeq2) or a path to a .cdfg file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"pchls"
)

func main() {
	var (
		graphArg = flag.String("g", "", "benchmark name or .cdfg file path")
		libPath  = flag.String("lib", "", "functional-unit library file (default: the paper's Table 1)")
		deadline = flag.Int("T", 0, "latency constraint in clock cycles (required)")
		powerMax = flag.Float64("P", 0, "per-cycle power constraint P< (0 = unconstrained)")
		single   = flag.Bool("single", false, "use the one-pass paper algorithm instead of the portfolio")
		portf    = flag.Int("portfolio", 0, "run the anytime portfolio with this many perturbed passes per round (0 = off; try 8)")
		budget   = flag.Int("budget", 2, "with -portfolio: maximum improvement rounds")
		seed     = flag.Int64("seed", 1, "with -portfolio: perturbation seed (fixed seed = identical result)")
		verilog  = flag.String("verilog", "", "write the FSMD Verilog implementation to this file")
		width    = flag.Int("width", 16, "datapath bit width for -verilog")
		dotOut   = flag.String("dot", "", "write the scheduled CDFG in DOT format to this file")
		profile  = flag.Bool("profile", false, "print the per-cycle power profile")
		stats    = flag.Bool("stats", false, "print synthesis work counters (scheduler runs, window-cache effectiveness)")
		printLib = flag.Bool("print-lib", false, "print the functional-unit library (Table 1) and exit")
		simulate = flag.String("simulate", "", "simulate the FSMD with comma-separated inputs, e.g. \"x=3,y=4\" (also verifies against data-flow evaluation)")
		vcdOut   = flag.String("vcd", "", "with -simulate: write a VCD waveform trace to this file")
		htmlOut  = flag.String("html", "", "write a self-contained HTML design report to this file")
		jsonOut  = flag.String("json", "", "write the design as JSON to this file")
		tbOut    = flag.String("testbench", "", "with -simulate: write a self-checking Verilog testbench to this file")
		workers  = flag.Int("j", 0, "concurrent synthesis runs in the portfolio (0 = GOMAXPROCS, 1 = serial); the design is identical for every setting")
		verifyD  = flag.Bool("verify", false, "re-check the design with the independent constraint validator (precedence, T, P<, occupancy, binding, area)")
		pareto   = flag.Bool("pareto", false, "explore the constraint grid and print the non-dominated (area, latency, peak, lifetime) front instead of one design")
		deads    = flag.String("deadlines", "", "with -pareto: comma-separated deadline grid (default: just -T)")
		pows     = flag.String("powers", "", "with -pareto: comma-separated power-cap grid (default: just -P)")
		batt     = flag.String("battery", "kibam", "with -pareto: battery model scoring the lifetime objective (kibam or peukert)")
		csvOut   = flag.Bool("csv", false, "with -pareto: print the front as CSV instead of a table")
	)
	flag.Parse()

	lib := pchls.Table1()
	if *libPath != "" {
		f, err := os.Open(*libPath)
		if err != nil {
			fatal(err)
		}
		lib, err = pchls.ParseLibrary(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if *printLib {
		fmt.Print(lib.Table())
		return
	}
	if *graphArg == "" || *deadline <= 0 {
		fmt.Fprintln(os.Stderr, "usage: pchls -g <benchmark|file.cdfg> -T <cycles> [-P <power>] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	g, err := loadGraph(*graphArg)
	if err != nil {
		fatal(err)
	}

	ccfg := pchls.Config{Workers: *workers}

	if *pareto {
		deadlines := []int{*deadline}
		if *deads != "" {
			deadlines, err = parseIntList(*deads)
			if err != nil {
				fatal(fmt.Errorf("-deadlines: %w", err))
			}
		}
		powers := []float64{*powerMax}
		if *pows != "" {
			powers, err = parseFloatList(*pows)
			if err != nil {
				fatal(fmt.Errorf("-powers: %w", err))
			}
		}
		battery, err := pchls.DefaultBattery(g, lib, *batt)
		if err != nil {
			fatal(err)
		}
		front, err := pchls.SynthesizePareto(g, lib, pchls.ParetoConfig{
			Deadlines: deadlines, Powers: powers, Battery: battery,
			SinglePass: *single, Workers: *workers, Config: ccfg,
		})
		if err != nil {
			fatal(err)
		}
		if *csvOut {
			fmt.Print(front.CSV())
		} else {
			fmt.Printf("%s: %d non-dominated design(s) from %d grid cell(s) (%d feasible), battery %s\n\n",
				front.Benchmark, len(front.Points), front.Evaluated, front.Feasible, *batt)
			fmt.Print(front.Table())
		}
		return
	}

	cons := pchls.Constraints{Deadline: *deadline, PowerMax: *powerMax}
	var d *pchls.Design
	if *portf > 0 {
		var res *pchls.PortfolioResult
		res, err = pchls.SynthesizePortfolio(g, lib, cons, pchls.PortfolioConfig{
			K: *portf, Budget: *budget, Seed: *seed,
			Workers: *workers, Core: ccfg,
		})
		if err == nil {
			d = res.Design
			fmt.Printf("portfolio: %d passes over %d round(s), %d bound-aborted, %d infeasible; %d pass + %d splice improvement(s)\n",
				res.Passes, res.Rounds, res.Aborted, res.Infeasible, res.PassImprovements, res.SpliceImprovements)
			if res.Improved {
				fmt.Printf("portfolio: area %.1f -> %.1f (%.1f%% below the single greedy pass)\n\n",
					res.BaselineArea, d.Area(), 100*res.Gap())
			} else if res.BaselineArea > 0 {
				fmt.Printf("portfolio: matched the single greedy pass (area %.1f)\n\n", res.BaselineArea)
			} else {
				fmt.Printf("portfolio: found a design where the single greedy pass was infeasible\n\n")
			}
		}
	} else {
		synth := pchls.SynthesizeBest
		if *single {
			synth = pchls.Synthesize
		}
		d, err = synth(g, lib, cons, ccfg)
	}
	if err != nil {
		if errors.Is(err, pchls.ErrInfeasible) {
			fmt.Fprintf(os.Stderr, "pchls: infeasible: %v\n", err)
			os.Exit(1)
		}
		fatal(err)
	}
	fmt.Print(d.Report())
	if *verifyD {
		if err := pchls.Verify(d); err != nil {
			fatal(fmt.Errorf("independent validator rejected the design: %w", err))
		}
		fmt.Println("\nverified: precedence, deadline, power cap, instance occupancy, binding compatibility, area accounting")
	}
	if *stats {
		fmt.Println("\nsynthesis work:")
		fmt.Print(d.Stats.String())
	}
	if *profile {
		fmt.Println("\npower profile:")
		fmt.Print(d.Schedule.ProfileString(*powerMax))
	}
	if *dotOut != "" {
		s := d.Schedule
		dot := g.Dot(func(id pchls.NodeID) (int, bool) { return s.Start[id], true })
		if err := os.WriteFile(*dotOut, []byte(dot), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dotOut)
	}
	if *htmlOut != "" {
		if err := os.WriteFile(*htmlOut, []byte(pchls.DesignHTML(d)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *htmlOut)
	}
	if *jsonOut != "" {
		raw, err := d.JSON()
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, raw, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	if *verilog != "" {
		v, err := pchls.EmitVerilog(d, *width)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*verilog, []byte(v), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *verilog)
	}
	if *simulate != "" {
		inputs, err := parseInputs(*simulate)
		if err != nil {
			fatal(err)
		}
		outputs, err := pchls.SimulateDesign(d, inputs)
		if err != nil {
			fatal(err)
		}
		if err := pchls.VerifyDesign(d, inputs); err != nil {
			fatal(fmt.Errorf("FSMD disagrees with data-flow evaluation: %w", err))
		}
		fmt.Println("\nsimulation (FSMD matches data-flow evaluation):")
		names := make([]string, 0, len(outputs))
		for name := range outputs {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-12s = %d\n", name, outputs[name])
		}
		if *vcdOut != "" {
			f, err := os.Create(*vcdOut)
			if err != nil {
				fatal(err)
			}
			if err := pchls.DumpVCD(d, inputs, *width, f); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *vcdOut)
		}
		if *tbOut != "" {
			tb, err := pchls.EmitTestbench(d, inputs)
			if err != nil {
				fatal(err)
			}
			if err := os.WriteFile(*tbOut, []byte(tb), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s\n", *tbOut)
		}
	}
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloatList parses a comma-separated list of floats.
func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("bad entry %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseInputs parses "name=value,name=value" assignments. Empty and
// repeated names are rejected.
func parseInputs(s string) (map[string]int64, error) {
	out := make(map[string]int64)
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, valStr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("pchls: bad input assignment %q (want name=value)", pair)
		}
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("pchls: bad input assignment %q (empty name)", pair)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("pchls: input %q assigned twice", name)
		}
		v, err := strconv.ParseInt(strings.TrimSpace(valStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("pchls: bad input value in %q: %w", pair, err)
		}
		out[name] = v
	}
	return out, nil
}

// loadGraph resolves a benchmark name or reads a .cdfg file.
func loadGraph(arg string) (*pchls.Graph, error) {
	if g, err := pchls.Benchmark(arg); err == nil {
		return g, nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, fmt.Errorf("pchls: %q is neither a benchmark name nor a readable file: %w", arg, err)
	}
	defer f.Close()
	return pchls.ParseGraph(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pchls:", err)
	os.Exit(1)
}
