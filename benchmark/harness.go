package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// workload is one traffic mix. Every workload is a closed loop with one
// client, which sends the next operation only after the previous one
// completed, because its callers (a CLI user, a design-space-exploration
// script, a coordinator) each wait for a reply.
type workload struct {
	name string
	// tail is the percentile reported as latency_tail_ms: the highest
	// candidate (stats.go) that leaves at least ten samples beyond it in a
	// default-length run on the reference machine and repeats from run to
	// run within 0.10 (see README.md).
	tail float64
	open func(seed int64, small bool) (session, error)
}

// session is a workload's live state: its seeded operation list plus any
// servers it booted.
type session interface {
	// size is the nominal length of the operation list; the first
	// twentieth of it is the warm-up pass.
	size() int
	// pass is the length of a stretch of operations that is the same mix
	// in every run (the list when it cycles, a fleet round), so that a
	// timed phase can end on a whole pass; 0 for a stream without one.
	pass() int
	// do runs operation seq and returns the latency of the call under test
	// (bookkeeping excluded). A non-nil error is a failed operation.
	do(c *opCtx, seq int64) (time.Duration, error)
	// cells is the number of constraint cells operation seq answers.
	cells(seq int64) int
	// probe times each layer's functions on operation seq's inputs.
	probe(c *opCtx, seq int64)
	// counters returns cumulative work counters under canonical names.
	counters() (map[string]float64, error)
	// check verifies every output against its reference, after timing.
	// With corrupt set it damages one reference first (the test hook that
	// proves a mismatch is counted).
	check(corrupt bool) (checkResult, error)
	close() error
}

// opCtx carries one operation's tracing context.
type opCtx struct {
	ctx  context.Context
	rec  *recorder // nil when untraced
	span int       // the operation's root span
	seq  int64
}

// checkResult is the outcome of the post-timing correctness pass.
type checkResult struct {
	// bad reports whether operation seq returned a wrong output, and why
	// (nil: every output was right).
	bad func(seq int64) (string, bool)
	// problems lists reference failures not tied to a timed operation.
	problems       []string
	digest         string
	area           float64
	infeasible     int
	verifyFailures int
	hasArea        bool
}

// options configure one run. The unexported test hooks shrink the inputs
// and fix the operation count so the harness runs under the race detector.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string

	small   bool // tiny inputs
	maxOps  int  // >0: run exactly this many timed operations (split between the halves of a traced run)
	corrupt bool // damage one reference before checking
}

// Set-up runs at least setupReps times, and more (up to setupMaxReps)
// until setupBudget has been spent, so that a set-up of a few milliseconds
// is still measured over enough work to repeat; setup_s is the median.
const (
	setupReps    = 3
	setupMaxReps = 25
	setupBudget  = time.Second
	// setupCalib is how many times the reference task runs right before
	// and right after each set-up.
	setupCalib = 4
)

// rssEvery is how often a timed phase samples the resident set size.
const rssEvery = 50 * time.Millisecond

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	base  string
}

// result is everything one run reports.
type result struct {
	workload  string
	seed      int64
	trace     bool
	correct   bool
	attempted int
	failed    int
	problems  []string
	// metrics are the JSON-line metrics: every end-to-end metric, or every
	// per-layer metric with -trace 1.
	metrics map[string]metric
	// extra are the informational metrics printed before the JSON line.
	extra  map[string]metric
	digest string
}

// opRecord is one attempted operation.
type opRecord struct {
	seq    int64
	at     time.Duration // start, since the calibrator was made
	lat    float64       // ms
	speed  float64       // machine speed around the operation (calib.go)
	failed bool
}

// phase is one timed stretch of operations.
type phase struct {
	ops     []opRecord
	errs    []string
	wall    time.Duration
	probe   time.Duration // spent on probes (traced runs)
	calib   time.Duration // spent on the reference task
	speed   float64       // machine speed over the operations, weighted by their latencies
	cpu     time.Duration // the reference task's CPU time excluded
	rss     []float64     // resident set size samples, MiB
	alloc   uint64
	before  map[string]float64
	after   map[string]float64
	waitMax float64
}

func (p *phase) attempted() int { return len(p.ops) }

func (p *phase) failed() int {
	n := 0
	for _, r := range p.ops {
		if r.failed {
			n++
		}
	}
	return n
}

// latencies returns the completed operations' latencies in ms.
func (p *phase) latencies() []float64 {
	var lat []float64
	for _, r := range p.ops {
		if !r.failed {
			lat = append(lat, r.lat)
		}
	}
	return lat
}

// cells counts the constraint cells the completed operations answered.
func (p *phase) cells(s session) int {
	n := 0
	for _, r := range p.ops {
		if !r.failed {
			n += s.cells(r.seq)
		}
	}
	return n
}

// summary condenses the phase's latencies at the given tail percentile.
func (p *phase) summary(tail float64) latencySummary {
	return summarize(p.latencies(), p.failed(), tail)
}

// summaryAtRef is summary at reference speed: each latency multiplied by
// the machine speed around its operation.
func (p *phase) summaryAtRef(tail float64) latencySummary {
	var lat []float64
	for _, r := range p.ops {
		if !r.failed {
			lat = append(lat, r.lat*r.speed)
		}
	}
	return summarize(lat, p.failed(), tail)
}

// busy is the phase's wall time less the time spent on probes and on the
// reference task.
func (p *phase) busy() time.Duration { return p.wall - p.probe - p.calib }

// throughput returns completed operations per busy second.
func (p *phase) throughput() float64 {
	return ratio(float64(len(p.latencies())), p.busy().Seconds())
}

// probeSelected picks every tenth operation, from a seeded offset, for
// probing: evenly spread, so a workload of slow operations still gets its
// share of probes.
func probeSelected(seed, seq int64) bool { return ((seq+seed)%10+10)%10 == 0 }

// mix hashes (seed, n) into a uniform 64-bit value.
func mix(seed, n int64) uint64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	sum := sha256.Sum256(b[:])
	return binary.LittleEndian.Uint64(sum[:8])
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// rssReader reads the process's current resident set size from
// /proc/self/statm into a fixed buffer, so sampling it allocates nothing.
type rssReader struct {
	f   *os.File
	buf [256]byte
}

// openRSS returns a reader, or nil where /proc/self/statm does not exist.
func openRSS() *rssReader {
	f, err := os.Open("/proc/self/statm")
	if err != nil {
		return nil
	}
	return &rssReader{f: f}
}

// mb returns the resident set size in MiB, or NaN when it cannot be read.
// statm's second field is the resident size in pages.
func (r *rssReader) mb() float64 {
	if r == nil {
		return math.NaN()
	}
	n, err := r.f.ReadAt(r.buf[:], 0)
	if n == 0 && err != nil {
		return math.NaN()
	}
	field, pages := 0, 0
	for _, c := range r.buf[:n] {
		switch {
		case c == ' ':
			field++
		case field == 1 && c >= '0' && c <= '9':
			pages = pages*10 + int(c-'0')
		}
		if field > 1 {
			return float64(pages) * float64(os.Getpagesize()) / (1 << 20)
		}
	}
	return math.NaN()
}

func (r *rssReader) close() {
	if r != nil {
		r.f.Close() // read-only
	}
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// timed runs operations start, start+1, ... from one closed-loop client
// until dur has passed and the list's current pass is complete (or until
// maxOps operations were attempted). After each operation cal runs the
// reference task for its share of the time.
// With a recorder every operation gets an "op" root span, and every tenth
// (probeSelected) a sibling "probe" span timing the layer functions on
// its inputs; the probe never counts toward the operation's latency.
func timed(s session, o options, start int64, dur time.Duration, maxOps int, rec *recorder, cal *calibrator, sampleWait func() float64) (*phase, int64, error) {
	p := &phase{}
	var err error
	if p.before, err = s.counters(); err != nil {
		return nil, 0, err
	}
	stopWt := make(chan struct{})
	var waitWg sync.WaitGroup
	if sampleWait != nil {
		waitWg.Add(1)
		go func() {
			defer waitWg.Done()
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-stopWt:
					return
				case <-t.C:
					// The sampler is waitMax's only writer; timed reads it
					// after waitWg.Wait.
					p.waitMax = max(p.waitMax, sampleWait())
				}
			}
		}()
	}
	// Operations [start, limit) run; limit drops to the end of the phase
	// once time is up.
	limit := int64(math.MaxInt64)
	if maxOps > 0 {
		limit = start + int64(maxOps)
	}
	pass := int64(s.pass())
	calSpent, calCPU, calFrom := cal.spent, cal.cpu, len(cal.samples)
	rss := openRSS()
	defer rss.close()
	p.rss = make([]float64, 0, 1<<14) // before alloc0: sampling allocates nothing counted
	var sampled time.Time
	cpu0, alloc0 := cpuTime(), totalAlloc()
	t0 := time.Now()
	for seq := start; seq < limit; seq++ {
		if maxOps == 0 && limit == math.MaxInt64 && time.Since(t0) >= dur {
			// Time is up: the phase ends at the next pass boundary, so it
			// covers whole passes.
			limit = seq
			if pass > 0 {
				limit = start + (seq-start+pass-1)/pass*pass
			}
			if seq >= limit {
				break
			}
		}
		oc := &opCtx{ctx: context.Background(), rec: rec, seq: seq}
		oc.span = rec.start("op", 0, seq)
		at := time.Since(cal.t0)
		lat, opErr := s.do(oc, seq)
		rec.end(oc.span)
		p.ops = append(p.ops, opRecord{seq: seq, at: at, lat: float64(lat.Nanoseconds()) / 1e6, failed: opErr != nil})
		if opErr != nil && len(p.errs) < 5 {
			p.errs = append(p.errs, fmt.Sprintf("op %d: %v", seq, opErr))
		}
		if rec != nil && probeSelected(o.seed, seq) {
			pt := time.Now()
			pc := &opCtx{ctx: context.Background(), rec: rec, seq: seq}
			pc.span = rec.start("probe", 0, seq)
			s.probe(pc, seq)
			rec.end(pc.span)
			p.probe += time.Since(pt)
		}
		if time.Since(sampled) >= rssEvery {
			p.rss, sampled = append(p.rss, rss.mb()), time.Now()
		}
		cal.keepUp()
	}
	if len(cal.samples) == calFrom {
		cal.burst(1) // a phase too short to reach the task's share still gets a speed
	}
	p.wall = time.Since(t0)
	p.cpu, p.alloc = cpuTime()-cpu0, totalAlloc()-alloc0
	p.calib, p.cpu = cal.spent-calSpent, p.cpu-(cal.cpu-calCPU)
	var weighted, total float64
	for i := range p.ops {
		r := &p.ops[i]
		r.speed = cal.speedAround(r.at, r.at+time.Duration(r.lat*1e6))
		weighted += r.lat * r.speed
		total += r.lat
	}
	p.speed = ratio(weighted, total)
	close(stopWt)
	waitWg.Wait()
	if p.after, err = s.counters(); err != nil {
		return nil, 0, err
	}
	return p, limit, nil
}

// setUp opens the session repeatedly (closing all but the last), each
// time running the warm-up pass over the first twentieth of the list, and
// returns the last session with the median set-up time, as measured and
// at reference speed. Set-ups are short and the machine's speed drifts
// between them, so each is scaled by the reference task timed right before
// and after it.
func setUp(w *workload, o options, cal *calibrator) (s session, atRef, measured float64, errs []string, err error) {
	var (
		times, scaled []float64
		spent         time.Duration
	)
	for k := 0; k < setupReps || (k < setupMaxReps && spent < setupBudget); k++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, 0, nil, err
			}
		}
		// Each set-up starts from a collected heap, so the garbage earlier
		// ones left does not decide when a collection falls inside it.
		runtime.GC()
		around := cal.burst(setupCalib)
		t0 := time.Now()
		if s, err = w.open(o.seed, o.small); err != nil {
			return nil, 0, 0, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		errs = errs[:0]
		for seq := int64(0); seq < int64(warmLen(s.size())); seq++ {
			if _, err := s.do(&opCtx{ctx: context.Background(), seq: seq}, seq); err != nil {
				errs = append(errs, fmt.Sprintf("warm-up op %d: %v", seq, err))
			}
		}
		d := time.Since(t0)
		spent += d
		around = append(around, cal.burst(setupCalib)...)
		times = append(times, d.Seconds())
		scaled = append(scaled, d.Seconds()*speed(around))
	}
	return s, median(scaled), median(times), errs, nil
}

// warmLen is the warm-up pass length of an n-operation list: its first
// twentieth.
func warmLen(n int) int { return max(1, n/20) }

// run executes one workload end to end and returns its report.
func run(w *workload, o options) (*result, error) {
	cal := newCalibrator()
	s, setupS, setupMeasured, warmErrs, err := setUp(w, o, cal)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := s.close(); cerr != nil {
			fmt.Fprintf(os.Stderr, "%s: close: %v\n", w.name, cerr)
		}
	}()
	start := int64(warmLen(s.size()))
	dur := time.Duration(o.seconds * float64(time.Second))
	var waitFn func() float64
	if ws, ok := s.(interface{ queueWaiting() float64 }); ok {
		waitFn = ws.queueWaiting
	}

	r := &result{workload: w.name, seed: o.seed, trace: o.trace, extra: map[string]metric{}}
	var untraced, traced *phase
	var spans []span
	if !o.trace {
		if untraced, _, err = timed(s, o, start, dur, o.maxOps, nil, cal, nil); err != nil {
			return nil, err
		}
	} else {
		// The untraced half gives the throughput the traced half is
		// compared with (trace_overhead); per-layer numbers come only from
		// the traced half.
		var next int64
		if untraced, next, err = timed(s, o, start, dur/2, o.maxOps/2, nil, cal, nil); err != nil {
			return nil, err
		}
		rec := newRecorder()
		if traced, _, err = timed(s, o, next, dur/2, o.maxOps-o.maxOps/2, rec, cal, waitFn); err != nil {
			return nil, err
		}
		spans = rec.snapshot()
		if o.spans != "" {
			if err := writeSpansFile(o.spans, spans); err != nil {
				return nil, err
			}
		}
	}

	r.extra["peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"} // before the check's references add their own
	t0 := time.Now()
	chk, err := s.check(o.corrupt)
	if err != nil {
		return nil, fmt.Errorf("%s: check: %w", w.name, err)
	}
	r.digest = chk.digest
	measured := []*phase{untraced}
	if traced != nil {
		measured = append(measured, traced)
	}
	for _, p := range measured {
		r.problems = append(r.problems, p.errs...)
		r.problems = append(r.problems, markBad(p, chk)...)
		r.attempted += p.attempted()
		r.failed += p.failed()
	}
	r.problems = append(r.problems, warmErrs...)
	r.problems = append(r.problems, chk.problems...)
	r.correct = r.failed == 0 && len(warmErrs) == 0 && len(chk.problems) == 0 && chk.bad == nil

	r.extra["fail_ratio"] = metric{Value: ratio(float64(r.failed), float64(r.attempted)), Unit: "ratio", base: fmt.Sprintf("%d of %d", r.failed, r.attempted)}
	r.extra["ops_in_list"] = metric{Value: float64(s.size()), Unit: "count"}
	r.extra["warmup_ops"] = metric{Value: float64(start), Unit: "count"}
	r.extra["check_s"] = metric{Value: time.Since(t0).Seconds(), Unit: "s"}
	if chk.hasArea {
		r.extra["area_total"] = metric{Value: chk.area, Unit: "area"}
		r.extra["infeasible_ops"] = metric{Value: float64(chk.infeasible), Unit: "count"}
	}

	if o.trace {
		tp, up := traced.throughput(), untraced.throughput()
		r.metrics = layerMetrics(traced, traced.summary(w.tail).P50, spans, chk)
		r.metrics["trace_overhead"] = metric{Value: ratio(tp, up), Unit: "ratio",
			base: fmt.Sprintf("traced %.4g/s over untraced %.4g/s", tp, up)}
		addAll(r.extra, serverTimings(traced), exploreTimings(spans))
		r.extra["spans"] = metric{Value: float64(len(spans)), Unit: "count"}
		return r, nil
	}
	sum, ref := untraced.summary(w.tail), untraced.summaryAtRef(w.tail)
	// Timings are reported at reference speed (calib.go): each latency
	// multiplied by the speed around its operation, and the phase's rates
	// divided, and its CPU time multiplied, by the speed over all of its
	// operations. Each is also printed as measured.
	sp := untraced.speed
	asMeasured := map[string]metric{
		"latency_p50_ms":   {Value: sum.P50, Unit: "ms"},
		"latency_tail_ms":  {Value: sum.Tail, Unit: "ms", base: fmt.Sprintf("p%g of %d samples, %d beyond", w.tail*100, sum.Samples, sum.Beyond)},
		"throughput_ops_s": {Value: untraced.throughput(), Unit: "1/s"},
		"cells_per_s":      {Value: ratio(float64(untraced.cells(s)), untraced.busy().Seconds()), Unit: "1/s"},
		"cpu_ms_per_op":    {Value: ratio(float64(untraced.cpu.Nanoseconds())/1e6, float64(untraced.attempted())), Unit: "ms"},
	}
	r.metrics = map[string]metric{
		"setup_s":         {Value: setupS, Unit: "s"},
		"alloc_mb_per_op": {Value: ratio(float64(untraced.alloc)/1e6, float64(untraced.attempted())), Unit: "MB"},
		"rss_mb":          {Value: median(untraced.rss), Unit: "MB", base: fmt.Sprintf("median of %d samples", len(untraced.rss))},
	}
	r.extra["measured.setup_s"] = metric{Value: setupMeasured, Unit: "s"}
	for name, m := range asMeasured {
		r.extra["measured."+name] = m
		switch {
		case name == "latency_p50_ms":
			m.Value = ref.P50
		case name == "latency_tail_ms":
			m.Value = ref.Tail
		case m.Unit == "1/s":
			m.Value /= sp
		default:
			m.Value *= sp
		}
		r.metrics[name] = m
	}
	r.extra["speed"] = metric{Value: sp, Unit: "ratio", base: fmt.Sprintf("reference task %v nominal; weighted by latency over %d operations",
		calibNominal, untraced.attempted())}
	for _, p := range tailCandidates {
		ps := untraced.summary(p)
		r.extra[fmt.Sprintf("measured.latency_p%g_ms", p*100)] = metric{Value: ps.Tail, Unit: "ms", base: fmt.Sprintf("%d beyond", ps.Beyond)}
	}
	if p, ok := selectTail(sum.Samples); !ok || p < w.tail {
		r.extra["tail_warning"] = metric{Value: float64(sum.Beyond), Unit: "count", base: fmt.Sprintf("fewer than %d samples beyond p%g", minBeyond, w.tail*100)}
	}
	// The counters are exact work counts, so the untraced run reports them
	// too; the probe timings need the traced run.
	addAll(r.extra, counterMetrics(untraced, chk), serverTimings(untraced))
	return r, nil
}

// addAll copies every metric of srcs into dst.
func addAll(dst map[string]metric, srcs ...map[string]metric) {
	for _, src := range srcs {
		for k, v := range src {
			dst[k] = v
		}
	}
}

// markBad turns every operation whose output failed the check into a
// failed operation and returns the first few reasons.
func markBad(p *phase, chk checkResult) []string {
	if chk.bad == nil {
		return nil
	}
	var why []string
	for i := range p.ops {
		r := &p.ops[i]
		if r.failed {
			continue
		}
		if reason, bad := chk.bad(r.seq); bad {
			r.failed = true
			if len(why) < 5 {
				why = append(why, fmt.Sprintf("op %d: %s", r.seq, reason))
			}
		}
	}
	return why
}

func writeSpansFile(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
