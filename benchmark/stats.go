package main

import (
	"math"
	"sort"
)

// tailCandidates are the tail percentiles a workload may report, highest
// first. A percentile qualifies only when at least minBeyond samples lie
// beyond it; below that its value is set by a handful of requests and does
// not repeat from run to run. p75 serves workloads whose operations are
// too slow to gather a hundred samples in one run.
var tailCandidates = []float64{0.99, 0.90, 0.75}

const minBeyond = 10

// samplesBeyond returns how many of n samples lie beyond percentile p
// (nearest-rank): n - ceil(p*n).
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// selectTail returns the highest candidate percentile that leaves at least
// minBeyond of n samples beyond it, and false when none does.
func selectTail(n int) (float64, bool) {
	for _, p := range tailCandidates {
		if samplesBeyond(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// latencySummary condenses one run's latencies. Failed operations count as
// missing every latency limit: they sort beyond every completed one, so a
// percentile that lands on them reads +Inf.
type latencySummary struct {
	Samples int     // completed plus failed operations
	P50     float64 // median latency
	Tail    float64 // latency at the tail percentile
	Beyond  int     // samples beyond the tail percentile
}

// summarize computes the median and the tail-percentile latency of the
// completed samples plus failed operations counted as +Inf.
func summarize(completed []float64, failed int, tail float64) latencySummary {
	all := make([]float64, 0, len(completed)+failed)
	all = append(all, completed...)
	for i := 0; i < failed; i++ {
		all = append(all, math.Inf(1))
	}
	sort.Float64s(all)
	return latencySummary{
		Samples: len(all),
		P50:     percentile(all, 0.5),
		Tail:    percentile(all, tail),
		Beyond:  samplesBeyond(len(all), tail),
	}
}

// percentile interpolates linearly between the closest ranks of sorted
// (the common "type 7" definition). It returns NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	switch len(sorted) {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	h := p * float64(len(sorted)-1)
	lo := int(math.Floor(h))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	a, b := sorted[lo], sorted[lo+1]
	if math.IsInf(b, 1) {
		if h == float64(lo) {
			return a
		}
		return b
	}
	return a + (h-float64(lo))*(b-a)
}

// quartiles returns the first quartile, median and third quartile of xs
// exactly as Python's statistics.quantiles(xs, n=4) does (its default
// "exclusive" method), so spreads computed here match the ones external
// tooling computes from the same runs. A single sample is its own
// quartiles; an empty sample gives NaN.
func quartiles(xs []float64) (q1, med, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	ld := len(data)
	switch ld {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return data[0], data[0], data[0]
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median (0 when
// the median is 0 and the quartiles agree, +Inf when only the median is 0).
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		if q3 == q1 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload never
// reached did no work to take a ratio of).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}
