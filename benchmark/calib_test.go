package main

import (
	"math"
	"testing"
	"time"
)

// The reference task must not allocate: alloc_mb_per_op counts every byte
// the process allocates while operations run, and the task runs among them.
func TestCalibTaskAllocatesNothing(t *testing.T) {
	task := newCalibTask()
	task.run() // the map's buckets are allocated on the first run
	if n := testing.AllocsPerRun(5, func() { task.run() }); n != 0 {
		t.Errorf("reference task allocates %v times per run", n)
	}
}

func TestSpeed(t *testing.T) {
	if s := speed([]time.Duration{calibNominal}); s != 1 {
		t.Errorf("speed at nominal = %v, want 1", s)
	}
	if s := speed([]time.Duration{calibNominal, 2 * calibNominal, 2 * calibNominal}); s != 0.5 {
		t.Errorf("speed at twice nominal = %v, want 0.5", s)
	}
}

// TestSpeedAround pins the window an operation's speed comes from: the
// samples that ended within calibWindow of it, widened toward the nearer
// side until there are calibMin of them.
func TestSpeedAround(t *testing.T) {
	c := &calibrator{}
	ms := time.Millisecond
	// One sample every 10 ms for 2 s: nominal for the first second, twice
	// as slow for the second.
	for at := 10 * ms; at <= 2000*ms; at += 10 * ms {
		d := calibNominal
		if at > 1000*ms {
			d *= 2
		}
		c.samples, c.ends = append(c.samples, d), append(c.ends, at)
	}
	cases := []struct {
		from, to time.Duration
		want     float64
	}{
		{300 * ms, 400 * ms, 1},     // well inside the fast second
		{1500 * ms, 1600 * ms, 0.5}, // well inside the slow second
		{0, 0, 1},                   // at the start: the window is cut short
		{5000 * ms, 5000 * ms, 0.5}, // past the end: the calibMin nearest samples
	}
	for _, tc := range cases {
		if got := c.speedAround(tc.from, tc.to); got != tc.want {
			t.Errorf("speedAround(%v, %v) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
	// Straddling the change, the median falls between the two speeds.
	if got := c.speedAround(1000*ms, 1010*ms); got <= 0.5 || got >= 1 {
		t.Errorf("speedAround across the change = %v, want strictly between 0.5 and 1", got)
	}
}

func TestRSSReader(t *testing.T) {
	r := openRSS()
	if r == nil {
		t.Skip("no /proc/self/statm")
	}
	defer r.close()
	if mb := r.mb(); math.IsNaN(mb) || mb <= 0 {
		t.Errorf("resident set size = %v MiB", mb)
	}
	if n := testing.AllocsPerRun(5, func() { r.mb() }); n != 0 {
		t.Errorf("reading the resident set size allocates %v times", n)
	}
}
