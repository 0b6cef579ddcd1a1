// Command benchmark is the pchls end-to-end benchmark. It drives every
// layer through its public functions, from outside the program, under four
// closed-loop workloads:
//
//	classic  SynthesizeBest on the paper's seven benchmarks (the CLI's path)
//	large    single-pass Synthesize on 300- and 1000-node generated graphs
//	serve    POST /v1/synthesize against an in-process server
//	fleet    surface and pareto grids through a coordinator and two workers
//
// Usage:
//
//	go run ./benchmark -workload classic -seed 1            # end-to-end metrics
//	go run ./benchmark -workload all -seed 1                # every workload, one process each
//	go run ./benchmark -workload serve -seed 1 -trace 1 -spans spans.json
//	go run ./benchmark -workload all -seed 1 -out runs/A    # keep result records
//	go run ./benchmark -compare runs/A runs/B               # verdicts against BENCHMARK.json
//
// Each run prints its metrics as "name value unit" lines, then one JSON
// result line {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the JSON metrics are the end-to-end metrics; with -trace 1 they are the
// per-layer metrics of a traced run. A correctness failure exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// workloads lists the benchmark's workloads in run order; README.md and
// BENCHMARK.json say why each exists.
var workloads = []*workload{
	{name: "classic", tail: 0.90, open: openClassic},
	{name: "large", tail: 0.75, open: openLarge},
	{name: "serve", tail: 0.90, open: openServe},
	{name: "fleet", tail: 0.90, open: openFleet},
}

// defaultSeconds is the timed length of one run.
const defaultSeconds = 20

func main() {
	// One processor runs every goroutine: the synthesizer's and servers'
	// worker pools default to GOMAXPROCS, so each operation runs serially.
	// On a small shared machine a second processor adds no throughput but
	// makes every timing depend on how the scheduler and the garbage
	// collector happen to share the CPUs (see README.md, Load shape).
	runtime.GOMAXPROCS(1)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: classic, large, serve, fleet or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	out := fs.String("out", "", "directory to write each run's full result record into, for -compare")
	compare := fs.Bool("compare", false, "compare the result records of two directories: -compare dirA dirB")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two directories")
			return 2
		}
		return compareDirs("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want classic, large, serve, fleet or all)\n", *name)
		return 2
	}
	r, err := run(w, options{seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans})
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if *out != "" {
		if err := writeRecord(*out, r); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if err := report(stdout, stderr, r); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if !r.correct {
		return 1
	}
	return 0
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runAll re-executes this program once per workload, so each workload's
// memory is its own, and waits for each to finish.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(self, withWorkload(args, w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// withWorkload replaces the -workload value in args.
func withWorkload(args []string, name string) []string {
	out := make([]string, 0, len(args)+2)
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		switch {
		case a == "workload" && i+1 < len(args):
			i++
		case strings.HasPrefix(a, "workload="):
		default:
			out = append(out, args[i])
		}
	}
	return append(out, "-workload", name)
}

// finite maps a non-finite value, which JSON cannot carry, to -1: a
// percentile that landed on failed operations, or a ratio of nothing.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// report prints the run: a header, every extra metric, every JSON-line
// metric as "name value unit", then the JSON result line last.
func report(stdout, stderr io.Writer, r *result) error {
	fmt.Fprintf(stdout, "workload %s seed %d trace %t\n", r.workload, r.seed, r.trace)
	printMetrics(stdout, r.extra)
	printMetrics(stdout, r.metrics)
	fmt.Fprintf(stdout, "design_digest %s sha256\n", r.digest)
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "%s: %s\n", r.workload, p)
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]metric{}}
	for k, m := range r.metrics {
		line.Metrics[k] = metric{Value: finite(m.Value), Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		fmt.Fprintf(w, "%s %s %s", k, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
		if m.base != "" {
			fmt.Fprintf(w, "  (%s)", m.base)
		}
		fmt.Fprintln(w)
	}
}

// record is one run's full result as -out stores it for -compare.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Digest    string            `json:"design_digest"`
}

// writeRecord stores r under dir, named so repeated runs never collide.
func writeRecord(dir string, r *result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := record{Workload: r.workload, Seed: r.seed, Trace: r.trace, Correct: r.correct,
		Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}, Digest: r.digest}
	for _, ms := range []map[string]metric{r.extra, r.metrics} {
		for k, m := range ms {
			rec.Metrics[k] = metric{Value: finite(m.Value), Unit: m.Unit}
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, fmt.Sprintf("%s-seed%d-trace%t-*.json", r.workload, r.seed, r.trace))
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords loads every record in dir.
func readRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var recs []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
