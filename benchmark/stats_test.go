package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},        // extrapolates, as Python does
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},             // n+1 = 4 lands on ranks
		{[]float64{5, 5, 5, 5}, [3]float64{5, 5, 5}},          // ties
		{[]float64{1, 1, 2, 2, 2, 9}, [3]float64{1, 2, 3.75}}, // ties with an outlier
		{[]float64{3}, [3]float64{3, 3, 3}},                   // a single sample is its own quartiles
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if q1, med, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(med) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v %v %v, want NaN", q1, med, q3)
	}
}

func TestSpread(t *testing.T) {
	if s := spread([]float64{5, 5, 5, 5}); s != 0 {
		t.Errorf("spread of ties = %v, want 0", s)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-5.5/5.5) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", s)
	}
	if s := spread([]float64{-1, 0, 0, 1}); !math.IsInf(s, 1) {
		t.Errorf("spread around a zero median = %v, want +Inf", s)
	}
}

func TestPercentile(t *testing.T) {
	if v := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("percentile of nothing = %v, want NaN", v)
	}
	if v := percentile([]float64{7}, 0.99); v != 7 {
		t.Errorf("percentile of one sample = %v, want 7", v)
	}
	s := []float64{1, 2, 3, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if v := percentile(s, c.p); math.Abs(v-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, c.p, v, c.want)
		}
	}
}

func TestSelectTail(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 0.99, true}, // exactly ten beyond p99
		{999, 0.90, true},  // nine beyond p99 is too few
		{100, 0.90, true},
		{99, 0.75, true},
		{40, 0.75, true},
		{39, 0, false},
		{0, 0, false},
		{1, 0, false},
	}
	for _, c := range cases {
		p, ok := selectTail(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("selectTail(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	if b := samplesBeyond(1000, 0.99); b != 10 {
		t.Errorf("samplesBeyond(1000, 0.99) = %d, want 10", b)
	}
}

func TestSummarizeCountsFailuresAsMissingTheLimit(t *testing.T) {
	s := summarize([]float64{3, 1, 2}, 1, 0.9)
	if s.Samples != 4 {
		t.Errorf("samples = %d, want 4 (failures count as attempted)", s.Samples)
	}
	if s.P50 != 2.5 {
		t.Errorf("p50 = %v, want 2.5", s.P50)
	}
	if !math.IsInf(s.Tail, 1) {
		t.Errorf("p90 = %v, want +Inf: the tail lands on the failed operation", s.Tail)
	}
}

func TestAllFailedPhase(t *testing.T) {
	p := &phase{wall: time.Second}
	for i := 0; i < 5; i++ {
		p.ops = append(p.ops, opRecord{seq: int64(i), lat: 1, failed: true})
	}
	if p.attempted() != 5 || p.failed() != 5 {
		t.Fatalf("attempted %d failed %d, want 5 and 5", p.attempted(), p.failed())
	}
	if r := ratio(float64(p.failed()), float64(p.attempted())); r != 1 {
		t.Errorf("fail ratio = %v, want 1", r)
	}
	if tp := p.throughput(); tp != 0 {
		t.Errorf("throughput = %v, want 0: failed operations complete nothing", tp)
	}
	s := p.summary(0.9)
	if !math.IsInf(s.P50, 1) || finite(s.P50) != -1 {
		t.Errorf("p50 = %v (reported %v), want +Inf reported as -1", s.P50, finite(s.P50))
	}
}
