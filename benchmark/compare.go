package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactMetrics are deterministic outputs that must match bit for bit
// between runs of the same seed; any difference means behaviour changed.
var exactMetrics = []string{"area_total", "infeasible_ops"}

// verdict compares runs a (base) and b (change) of one metric against its
// bound. A spread wider than the bound leaves the metric unresolved, unless
// every run of one side reads better than every run of the other.
func verdict(a, b []float64, lowerBetter bool, bound float64) string {
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	worse := func(x, y float64) bool { // x worse than y
		if lowerBetter {
			return x > y
		}
		return x < y
	}
	if math.Max(spread(a), spread(b)) > bound {
		switch {
		case allWorse(b, a, worse):
			return "worse"
		case allWorse(a, b, worse):
			return "better"
		}
		return "unresolved"
	}
	change := (mb - ma) / math.Abs(ma)
	if !lowerBetter {
		change = -change
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

// allWorse reports whether every value of xs is worse than every value of
// ys.
func allWorse(xs, ys []float64, worse func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !worse(x, y) {
				return false
			}
		}
	}
	return len(xs) > 0 && len(ys) > 0
}

// compareDirs prints, per workload and end-to-end metric, the medians and
// quartiles of the untraced records in dirA (base) and dirB (change) with a
// verdict, and flags any exact output or design digest that differs for
// the same seed as "behaviour changed". It exits 1 on a worse metric or a
// behaviour change.
func compareDirs(specPath, dirA, dirB string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", specPath, err)
		return 2
	}
	var sides [2][]record
	for i, dir := range []string{dirA, dirB} {
		recs, err := readRecords(dir)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		for _, r := range recs {
			if !r.Trace {
				sides[i] = append(sides[i], r)
			}
		}
	}
	byWorkload := func(recs []record) map[string][]record {
		m := map[string][]record{}
		for _, r := range recs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	a, b := byWorkload(sides[0]), byWorkload(sides[1])
	names := make([]string, 0, len(a))
	for w := range a {
		if _, ok := b[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(stderr, "benchmark: no workload has untraced records on both sides")
		return 2
	}
	code := 0
	for _, w := range names {
		fmt.Fprintf(stdout, "%s: %d runs vs %d runs\n", w, len(a[w]), len(b[w]))
		fmt.Fprintf(stdout, "  %-18s %-34s %-34s %6s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			va, vb := values(a[w], m.Name), values(b[w], m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "  %-18s missing\n", m.Name)
				continue
			}
			v := verdict(va, vb, m.Better == "lower", m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "  %-18s %-34s %-34s %6g  %s\n", m.Name, quart(va), quart(vb), m.Bound, v)
		}
		for _, msg := range behaviourChanges(a[w], b[w]) {
			fmt.Fprintf(stdout, "  behaviour changed: %s\n", msg)
			code = 1
		}
		for _, r := range append(append([]record(nil), a[w]...), b[w]...) {
			if !r.Correct {
				fmt.Fprintf(stdout, "  incorrect run: seed %d, %d of %d operations failed\n", r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
	}
	return code
}

func values(recs []record, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func quart(vs []float64) string {
	q1, med, q3 := quartiles(vs)
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 5, 64) }
	return fmt.Sprintf("%s [%s, %s]", f(med), f(q1), f(q3))
}

// behaviourChanges lists every seed whose design digest or exact outputs
// are not identical across all runs of both sides.
func behaviourChanges(a, b []record) []string {
	type key struct {
		seed int64
		what string
	}
	seen := map[key]string{}
	var out []string
	for _, r := range append(append([]record(nil), a...), b...) {
		vals := map[string]string{"design_digest": r.Digest}
		for _, name := range exactMetrics {
			if m, ok := r.Metrics[name]; ok {
				vals[name] = strconv.FormatFloat(m.Value, 'g', -1, 64)
			}
		}
		for what, v := range vals {
			k := key{r.Seed, what}
			if prev, ok := seen[k]; !ok {
				seen[k] = v
			} else if prev != v {
				out = append(out, fmt.Sprintf("seed %d %s %s vs %s", r.Seed, what, prev, v))
				seen[k] = v
			}
		}
	}
	sort.Strings(out)
	return out
}
