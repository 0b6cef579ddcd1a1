package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testSpec = `{"end_to_end": [
  {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
  {"name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.10}
]}`

// writeRuns stores one synthetic record per latency value in a new
// directory; throughput is the latency's reciprocal.
func writeRuns(t *testing.T, workload string, latencies []float64, digest string, area float64) string {
	t.Helper()
	dir := t.TempDir()
	for i, lat := range latencies {
		rec := record{Workload: workload, Seed: 1, Correct: true, Attempted: 10, Digest: digest,
			Metrics: map[string]metric{
				"latency_p50_ms":   {Value: lat, Unit: "ms"},
				"throughput_ops_s": {Value: 1000 / lat, Unit: "1/s"},
				"area_total":       {Value: area, Unit: "area"},
			}}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("run%d.json", i)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A traced record is ignored by -compare.
	traced := record{Workload: workload, Seed: 1, Trace: true, Metrics: map[string]metric{"latency_p50_ms": {Value: 1e9}}}
	b, _ := json.Marshal(traced)
	if err := os.WriteFile(filepath.Join(dir, "traced.json"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runCompare(t *testing.T, a, b string) (string, int) {
	t.Helper()
	spec := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(testSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := compareDirs(spec, a, b, &out, &errOut)
	return out.String() + errOut.String(), code
}

// verdictOf returns the verdict column of metric's row.
func verdictOf(t *testing.T, out, metric string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == metric {
			return f[len(f)-1]
		}
	}
	t.Fatalf("no row for %s in:\n%s", metric, out)
	return ""
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{10, 10.1, 10.2, 9.9, 10}
	cases := []struct {
		name      string
		change    []float64
		latency   string
		tput      string
		wantExit1 bool
	}{
		{"same", []float64{10.1, 10, 9.95, 10.2, 10}, "same", "same", false},
		{"worse", []float64{12, 12.1, 12.2, 11.9, 12}, "worse", "worse", true},
		{"better", []float64{8, 8.1, 8.2, 7.9, 8}, "better", "better", false},
		// Spread far wider than the bound: no verdict can be drawn.
		{"unresolved", []float64{6, 14, 10, 8, 12}, "unresolved", "unresolved", false},
		// Wide spread, but every run beats every base run.
		{"wide but all better", []float64{5, 9, 7, 6, 8}, "better", "better", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, code := runCompare(t, writeRuns(t, "classic", base, "d1", 5), writeRuns(t, "classic", c.change, "d1", 5))
			if v := verdictOf(t, out, "latency_p50_ms"); v != c.latency {
				t.Errorf("latency verdict %q, want %q\n%s", v, c.latency, out)
			}
			if v := verdictOf(t, out, "throughput_ops_s"); v != c.tput {
				t.Errorf("throughput verdict %q, want %q\n%s", v, c.tput, out)
			}
			if (code == 1) != c.wantExit1 || strings.Contains(out, "behaviour changed") {
				t.Errorf("exit %d, want exit 1 = %t, no behaviour change\n%s", code, c.wantExit1, out)
			}
		})
	}
}

func TestCompareFlagsBehaviourChange(t *testing.T) {
	base := []float64{10, 10, 10}
	out, code := runCompare(t, writeRuns(t, "large", base, "d1", 5), writeRuns(t, "large", base, "d2", 5))
	if code != 1 || !strings.Contains(out, "behaviour changed: seed 1 design_digest d1 vs d2") {
		t.Errorf("a changed digest was not flagged (exit %d):\n%s", code, out)
	}
	out, code = runCompare(t, writeRuns(t, "large", base, "d1", 5), writeRuns(t, "large", base, "d1", 6))
	if code != 1 || !strings.Contains(out, "behaviour changed: seed 1 area_total 5 vs 6") {
		t.Errorf("a changed area was not flagged (exit %d):\n%s", code, out)
	}
}

func TestCompareNeedsCommonWorkload(t *testing.T) {
	_, code := runCompare(t, writeRuns(t, "classic", []float64{1}, "d", 1), writeRuns(t, "serve", []float64{1}, "d", 1))
	if code != 2 {
		t.Errorf("exit %d for disjoint workloads, want 2", code)
	}
}
