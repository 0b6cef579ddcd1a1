package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// specNames reads the metric names BENCHMARK.json declares.
func specNames(t *testing.T) (e2e, layers []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}
	return e2e, layers
}

func sortedKeys(ms map[string]metric) []string {
	var ks []string
	for k := range ms {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sameNames(t *testing.T, what string, got map[string]metric, want []string) {
	t.Helper()
	w := append([]string(nil), want...)
	sort.Strings(w)
	if g := sortedKeys(got); strings.Join(g, " ") != strings.Join(w, " ") {
		t.Errorf("%s metrics:\n got  %v\n want %v", what, g, w)
	}
}

// deterministic lists, per workload, the counters that repeat exactly for
// a fixed operation count. Work stealing makes the fleet's per-worker split
// depend on timing; everything else the engine and the one-client serve
// cache count is exact.
var deterministic = map[string][]string{
	"classic": {"sched.runs_per_op", "sched.pinned_runs_per_op", "core.window_hit_ratio", "core.window_invalidations_per_op", "core.fallbacks_per_op", "core.profile_probes_per_op"},
	"large":   {"sched.runs_per_op", "core.sdc_derivations_per_op", "core.compat_patches_per_op", "core.regions_per_op", "core.cut_edges_per_op", "core.partition_fallbacks_per_op", "core.bound_tightenings_per_op"},
	"serve":   {"server.engine_runs_per_op", "sched.runs_per_op", "cache.hit_ratio", "cache.evictions_per_op"},
	"fleet":   {"cluster.points_per_grid"},
}

// TestWorkloads runs every workload on a shrunken op list: twice untraced
// (every end-to-end metric present, exact outputs and counters repeat),
// then traced with one reference corrupted (every per-layer metric
// present, and the corruption counted as a failed operation).
func TestWorkloads(t *testing.T) {
	e2e, layers := specNames(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 3, seconds: 600, small: true, maxOps: 8}
			var runs [2]*result
			for i := range runs {
				r, err := run(w, o)
				if err != nil {
					t.Fatal(err)
				}
				if !r.correct || r.failed != 0 || r.attempted != o.maxOps {
					t.Fatalf("run %d: correct %t, %d of %d failed: %v", i, r.correct, r.failed, r.attempted, r.problems)
				}
				sameNames(t, "end-to-end", r.metrics, e2e)
				runs[i] = r
			}
			if runs[0].digest == "" || runs[0].digest != runs[1].digest {
				t.Errorf("design digest %q then %q", runs[0].digest, runs[1].digest)
			}
			exact := append([]string{"area_total", "infeasible_ops"}, deterministic[w.name]...)
			for _, name := range exact {
				a, okA := runs[0].extra[name]
				b, okB := runs[1].extra[name]
				if (okA || okB) && a.Value != b.Value {
					t.Errorf("%s = %v then %v", name, a.Value, b.Value)
				}
			}

			o.trace, o.corrupt = true, true
			r, err := run(w, o)
			if err != nil {
				t.Fatal(err)
			}
			sameNames(t, "per-layer", r.metrics, layers)
			if r.extra["spans"].Value < float64(o.maxOps) {
				t.Errorf("traced run recorded %v spans for %d traced ops", r.extra["spans"].Value, o.maxOps-o.maxOps/2)
			}
			if r.correct || r.failed == 0 || r.extra["fail_ratio"].Value <= 0 {
				t.Errorf("corrupted reference passed silently: correct %t, %d of %d failed", r.correct, r.failed, r.attempted)
			}
		})
	}
}

// TestReportLastLine pins the result line: the last line of standard
// output is one JSON object with exactly the four contract keys, every
// value finite.
func TestReportLastLine(t *testing.T) {
	r := &result{workload: "classic", correct: true, attempted: 3,
		metrics: map[string]metric{"latency_p50_ms": {Value: 1.5, Unit: "ms"}, "latency_tail_ms": {Value: math.Inf(1), Unit: "ms"}},
		extra:   map[string]metric{"area_total": {Value: 10, Unit: "area"}}}
	var out, errOut bytes.Buffer
	if err := report(&out, &errOut, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	var keys []string
	for k := range last {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
		t.Errorf("result keys %v", keys)
	}
	if !strings.Contains(lines[len(lines)-1], `"latency_tail_ms":{"value":-1,"unit":"ms"}`) {
		t.Errorf("a non-finite metric is not reported as -1: %s", lines[len(lines)-1])
	}
	if !strings.Contains(out.String(), "area_total 10 area\n") {
		t.Errorf("extra metric line missing:\n%s", out.String())
	}
}

func TestWithWorkload(t *testing.T) {
	got := withWorkload([]string{"-workload", "all", "-seed", "2", "--workload=all", "-trace", "1"}, "serve")
	want := "-seed 2 -trace 1 -workload serve"
	if strings.Join(got, " ") != want {
		t.Errorf("withWorkload = %v, want %s", got, want)
	}
}
