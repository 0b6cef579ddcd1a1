package main

import (
	"math/rand"
	"slices"
	"sort"
	"time"
)

// The benchmark runs on small shared machines whose speed drifts by a tenth
// or more from one minute to the next, as neighbours come and go, and that
// drift moves every timing of a run together. To compare runs made minutes
// apart, each run also times a fixed reference task of the benchmark's own
// (it calls no pchls code, so no change to the program can speed it up or
// slow it down) interleaved with its operations, and scales its timings by
// how fast the reference task ran: speed = calibNominal / median reference
// time. A time reported "at reference speed" is the measured time
// multiplied by that speed, a rate divided by it; README.md, Calibration,
// says more.

const (
	// calibNominal is the reference task's median time on the reference
	// machine when nothing else runs, so timings at reference speed read
	// close to what that machine measures when idle.
	calibNominal = 460 * time.Microsecond
	// calibShare is the share of a run spent on the reference task.
	calibShare = 0.04
	// An operation's speed comes from the samples within calibWindow of it,
	// and from at least calibMin samples.
	calibWindow = 250 * time.Millisecond
	calibMin    = 8
)

// calibTask is the reference task: longest paths through a fixed random DAG
// stored with permuted node labels, so that it chases pointers and branches
// the way a scheduler does, plus hashing into a map and a sort. It works in
// preallocated memory, so it allocates nothing and leaves the operations'
// allocation counts exact.
type calibTask struct {
	off, adj []int32 // successors of node v: adj[off[v]:off[v+1]]
	w        []int64
	order    []int32 // a topological order
	dist     []int64
	buf      []int64
	m        map[int64]int32
}

func newCalibTask() *calibTask {
	const n, deg = 2048, 6
	rng := rand.New(rand.NewSource(7))
	label := rng.Perm(n) // label[i] is the node at topological position i
	t := &calibTask{off: make([]int32, n+1), w: make([]int64, n), order: make([]int32, n),
		dist: make([]int64, n), buf: make([]int64, n), m: make(map[int64]int32, n)}
	succ := make([][]int32, n)
	for i := 0; i < n-1; i++ {
		for k := 0; k < deg; k++ {
			j := i + 1 + rng.Intn(min(n-1-i, 64))
			succ[label[i]] = append(succ[label[i]], int32(label[j]))
		}
	}
	for i, v := range label {
		t.order[i] = int32(v)
		t.w[v] = int64(1 + rng.Intn(9))
	}
	for v := 0; v < n; v++ {
		t.off[v+1] = t.off[v] + int32(len(succ[v]))
		t.adj = append(t.adj, succ[v]...)
	}
	return t
}

// run performs the task once and returns a checksum, so the work cannot be
// optimized away.
func (t *calibTask) run() int64 {
	var sum int64
	for rep := 0; rep < 2; rep++ {
		clear(t.dist)
		for _, v := range t.order {
			d := t.dist[v] + t.w[v]
			for _, u := range t.adj[t.off[v]:t.off[v+1]] {
				if d > t.dist[u] {
					t.dist[u] = d
				}
			}
		}
		clear(t.m)
		for v, d := range t.dist {
			t.m[d*2654435761+int64(v)%97]++
		}
		copy(t.buf, t.dist)
		for i := range t.buf {
			t.buf[i] ^= int64(t.m[t.buf[i]*2654435761]) << 3
		}
		slices.Sort(t.buf)
		sum += t.buf[len(t.buf)/2] + int64(len(t.m))
	}
	return sum
}

// calibrator samples the reference task through a whole run, set-up
// included, spending calibShare of the run's time on it.
type calibrator struct {
	task    *calibTask
	t0      time.Time
	samples []time.Duration
	ends    []time.Duration // when each sample ended, since t0
	spent   time.Duration   // wall time spent on the task
	cpu     time.Duration   // CPU time spent on the task
	sink    int64
}

func newCalibrator() *calibrator {
	// Room for about ten minutes of samples, so that recording them does
	// not allocate while operations are counted.
	return &calibrator{task: newCalibTask(), t0: time.Now(),
		samples: make([]time.Duration, 0, 1<<16), ends: make([]time.Duration, 0, 1<<16)}
}

// sample runs the task once and records its time.
func (c *calibrator) sample() time.Duration {
	t0 := time.Now()
	c.sink += c.task.run()
	d := time.Since(t0)
	c.samples = append(c.samples, d)
	c.ends = append(c.ends, time.Since(c.t0))
	c.spent += d
	return d
}

// keepUp runs the task until it has taken calibShare of the time since the
// calibrator was made.
func (c *calibrator) keepUp() {
	behind := func() bool { return float64(c.spent) < calibShare*float64(time.Since(c.t0)) }
	if !behind() {
		return
	}
	cpu0 := cpuTime()
	for behind() {
		c.sample()
	}
	c.cpu += cpuTime() - cpu0
}

// burst runs the task n times and returns the times.
func (c *calibrator) burst(n int) []time.Duration {
	cpu0 := cpuTime()
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = c.sample()
	}
	c.cpu += cpuTime() - cpu0
	return out
}

// speedAround returns the machine speed over from..to (times since the
// calibrator was made) widened by calibWindow on each side: the speed of
// the task samples that ended in it, or of the calibMin samples nearest to
// it when fewer did.
func (c *calibrator) speedAround(from, to time.Duration) float64 {
	lo := sort.Search(len(c.ends), func(i int) bool { return c.ends[i] >= from-calibWindow })
	hi := sort.Search(len(c.ends), func(i int) bool { return c.ends[i] > to+calibWindow })
	for hi-lo < calibMin && (lo > 0 || hi < len(c.ends)) {
		if hi == len(c.ends) || (lo > 0 && from-c.ends[lo-1] <= c.ends[hi]-to) {
			lo--
		} else {
			hi++
		}
	}
	return speed(c.samples[lo:hi])
}

// speed returns calibNominal over the median of the task times ds: above 1
// when the machine ran faster than the reference, below 1 when slower.
func speed(ds []time.Duration) float64 {
	ns := make([]float64, len(ds))
	for i, d := range ds {
		ns[i] = float64(d)
	}
	return float64(calibNominal) / median(ns)
}
