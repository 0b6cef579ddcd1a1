package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"pchls"
	"pchls/internal/core"
	"pchls/internal/gen"
	"pchls/internal/sched"
	"pchls/internal/verify"
)

// problem is one synthesis input: a graph, a library and a constraint
// point.
type problem struct {
	name string
	g    *pchls.Graph
	lib  *pchls.Library
	cons pchls.Constraints
}

// asapBounds returns the critical path and the unconstrained peak power of
// g under the fastest modules of lib (its voltage levels expanded).
func asapBounds(g *pchls.Graph, lib *pchls.Library) (int, float64, error) {
	elib, err := lib.Expand()
	if err != nil {
		return 0, 0, err
	}
	s, err := sched.ASAP(g, sched.UniformFastest(elib))
	if err != nil {
		return 0, 0, err
	}
	return s.Length(), s.PeakPower(), nil
}

// classicProblems is the classic op list: every paper benchmark at
// deadlines {cp, cp+3, cp+8} and caps {0.6, 0.8, unconstrained} x peak,
// once under Table 1 and once under a generated 3-level (DVS) library, in
// seeded order. The catalogue itself is fixed: runs with different seeds
// must measure the same work to be comparable, and a seeded library
// changes the work by a third.
func classicProblems(seed int64, small bool) ([]problem, error) {
	names := pchls.BenchmarkNames()
	offsets, caps := []int{0, 3, 8}, []float64{0.6, 0.8, 0}
	if small {
		names, offsets, caps = []string{"hal", "ar"}, []int{3}, []float64{0.8, 0}
	}
	var ps []problem
	for bi, name := range names {
		g, err := pchls.Benchmark(name)
		if err != nil {
			return nil, err
		}
		dvs := gen.Library(int64(1000+bi), gen.LibraryConfig{Levels: 3})
		for li, lib := range []*pchls.Library{pchls.Table1(), dvs} {
			cp, peak, err := asapBounds(g, lib)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			for _, off := range offsets {
				for _, f := range caps {
					cons := pchls.Constraints{Deadline: cp + off, PowerMax: f * peak}
					ps = append(ps, problem{
						name: fmt.Sprintf("%s/lib%d/T=%d/P=%g", name, li, cons.Deadline, cons.PowerMax),
						g:    g, lib: lib, cons: cons,
					})
				}
			}
		}
	}
	shuffleAfterWarmup(seed, ps)
	return ps, nil
}

// shuffleAfterWarmup puts all but the warm-up entries of ps in seeded
// order. The warm-up entries stay fixed so set-up does the same work for
// every seed.
func shuffleAfterWarmup(seed int64, ps []problem) {
	w := warmLen(len(ps))
	rand.New(rand.NewSource(seed)).Shuffle(len(ps)-w, func(i, j int) { ps[w+i], ps[w+j] = ps[w+j], ps[w+i] })
}

// largeProblems is the large op list: generated graphs of the layered,
// blocks and mixed presets at 300 and 1000 computation nodes, with and
// without Connect, at 1.5x the ASAP length and 0.7x the ASAP peak, two
// instances of each; plus elliptic, fft8 and ar at a 2^17-cycle deadline.
// As in classic, the graphs are fixed and the seed sets the order: one
// random 1000-node graph can cost twenty times another. The list has an
// odd length, so its median latency is that of one entry rather than the
// midpoint of the gap between two.
//
// The instance seeds keep every instance under about a sixth of a pass,
// so no single one decides a run, except that the unbridged mixed-1000
// pair is seeds 1004 and 1005: the first needs a region repair and the
// second falls back from partitioning to monolithic synthesis, the two
// failure paths of the decomposition.
func largeProblems(seed int64, small bool) ([]problem, error) {
	sizes, horizon, copies := []int{300, 1000}, 1<<17, 2
	if small {
		sizes, horizon, copies = []int{30}, 1<<9, 1
	}
	var ps []problem
	for _, preset := range []gen.Preset{gen.PresetLayered, gen.PresetBlocks, gen.PresetMixed} {
		for _, n := range sizes {
			for _, connect := range []bool{false, true} {
				seeds := []int64{1000, 1001}
				if preset == gen.PresetMixed && n == 1000 && !connect {
					seeds = []int64{1004, 1005}
				}
				for _, s := range seeds[:copies] {
					cfg, err := gen.PresetConfig(preset, n)
					if err != nil {
						return nil, err
					}
					cfg.Connect = connect
					inst := gen.NewInstance(s, gen.InstanceConfig{Graph: cfg})
					cp, peak, err := asapBounds(inst.Graph, inst.Library)
					if err != nil {
						return nil, err
					}
					ps = append(ps, problem{
						name: fmt.Sprintf("%s-n%d-connect=%t-seed%d", preset, n, connect, s),
						g:    inst.Graph, lib: inst.Library,
						cons: pchls.Constraints{Deadline: cp + cp/2, PowerMax: 0.7 * peak},
					})
				}
			}
		}
	}
	for _, name := range []string{"elliptic", "fft8", "ar"} {
		g, err := pchls.Benchmark(name)
		if err != nil {
			return nil, err
		}
		_, peak, err := asapBounds(g, pchls.Table1())
		if err != nil {
			return nil, err
		}
		ps = append(ps, problem{name: fmt.Sprintf("%s-T%d", name, horizon), g: g, lib: pchls.Table1(),
			cons: pchls.Constraints{Deadline: horizon, PowerMax: 0.7 * peak}})
	}
	shuffleAfterWarmup(seed, ps)
	return ps, nil
}

// outcome is one synthesis result.
type outcome struct {
	d   *pchls.Design
	err error // nil or wrapping ErrInfeasible
}

// directSession drives the synthesis facade in-process, the way the CLI
// does: the classic workload calls SynthesizeBest, the large workload the
// single-pass Synthesize. The op list cycles.
type directSession struct {
	problems []problem
	call     func(*pchls.Graph, *pchls.Library, pchls.Constraints, pchls.Config) (*pchls.Design, error)
	span     string

	mu    sync.Mutex
	first []*outcome // first outcome of each list entry
	last  int        // list entry of the latest operation
	stats core.Stats // summed Design.Stats of every operation
}

func openClassic(seed int64, small bool) (session, error) {
	ps, err := classicProblems(seed, small)
	if err != nil {
		return nil, err
	}
	return newDirect(ps, pchls.SynthesizeBest, "facade.SynthesizeBest"), nil
}

func openLarge(seed int64, small bool) (session, error) {
	ps, err := largeProblems(seed, small)
	if err != nil {
		return nil, err
	}
	return newDirect(ps, pchls.Synthesize, "facade.Synthesize"), nil
}

func newDirect(ps []problem, call func(*pchls.Graph, *pchls.Library, pchls.Constraints, pchls.Config) (*pchls.Design, error), span string) *directSession {
	return &directSession{problems: ps, call: call, span: span, first: make([]*outcome, len(ps))}
}

func (s *directSession) size() int { return len(s.problems) }

func (s *directSession) pass() int { return len(s.problems) }

func (s *directSession) cells(int64) int { return 1 }

func (s *directSession) index(seq int64) int { return int(seq % int64(len(s.problems))) }

// run synthesizes problem i, timing only the facade call.
func (s *directSession) run(c *opCtx, i int) (*outcome, time.Duration) {
	p := s.problems[i]
	id := c.rec.start(s.span, c.span, c.seq)
	t0 := time.Now()
	d, err := s.call(p.g, p.lib, p.cons, pchls.Config{})
	lat := time.Since(t0)
	c.rec.end(id)
	return &outcome{d, err}, lat
}

func (s *directSession) do(c *opCtx, seq int64) (time.Duration, error) {
	i := s.index(seq)
	o, lat := s.run(c, i)
	if o.err != nil && !errors.Is(o.err, pchls.ErrInfeasible) {
		return lat, fmt.Errorf("%s: %w", s.problems[i].name, o.err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = i
	if o.d != nil {
		s.stats = s.stats.Add(o.d.Stats)
	}
	f := s.first[i]
	if f == nil {
		s.first[i] = o
		return lat, nil
	}
	// Synthesis is deterministic: a repeat must reproduce the first run.
	if (o.d == nil) != (f.d == nil) || (o.d != nil && (o.d.Area() != f.d.Area() || o.d.Stats != f.d.Stats)) {
		return lat, fmt.Errorf("%s: result differs from its first run", s.problems[i].name)
	}
	return lat, nil
}

func (s *directSession) probe(c *opCtx, seq int64) {
	i := s.index(seq)
	p := s.problems[i]
	s.mu.Lock()
	f := s.first[i]
	s.mu.Unlock()
	in := probeInput{g: p.g, lib: p.lib, cons: p.cons}
	if f != nil {
		in.design = f.d
	}
	probeLayers(c, in)
}

func (s *directSession) counters() (map[string]float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return statsCounters(s.stats), nil
}

// check runs every list entry the timed phase never reached, validates
// every design with the independent validator and digests the outputs in
// list order.
func (s *directSession) check(corrupt bool) (checkResult, error) {
	res := checkResult{hasArea: true}
	n := len(s.problems)
	for i := range s.problems {
		if s.first[i] != nil {
			continue
		}
		o, _ := s.run(&opCtx{}, i)
		if o.err != nil && !errors.Is(o.err, pchls.ErrInfeasible) {
			res.problems = append(res.problems, fmt.Sprintf("%s: %v", s.problems[i].name, o.err))
			continue
		}
		s.first[i] = o
	}
	target := -1 // the design the corrupt hook damages: the latest one run
	for i := s.last; corrupt && target < 0 && i < s.last+n; i++ {
		if o := s.first[i%n]; o != nil && o.d != nil {
			target = i % n
		}
	}
	bad := map[int]string{}
	h := sha256.New()
	var areas []float64
	for i, o := range s.first {
		switch {
		case o == nil:
			continue
		case o.d == nil:
			res.infeasible++
			fmt.Fprintf(h, "%d infeasible: %v\n", i, o.err)
			continue
		}
		in := core.VerifyInput(o.d)
		if i == target {
			in = in.Clone()
			in.Start[0] += in.Deadline // push one operation past the deadline
		}
		if err := verify.Check(in); err != nil {
			res.verifyFailures++
			bad[i] = fmt.Sprintf("%s: invalid design: %v", s.problems[i].name, err)
		}
		body, err := o.d.JSON()
		if err != nil {
			return res, err
		}
		sum := sha256.Sum256(body)
		h.Write(sum[:])
		areas = append(areas, o.d.Area())
	}
	// Summed in sorted order, so the total is the same bits for every
	// seed's ordering of the list.
	sort.Float64s(areas)
	for _, a := range areas {
		res.area += a
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	if len(bad) > 0 {
		res.bad = func(seq int64) (string, bool) {
			why, ok := bad[s.index(seq)]
			return why, ok
		}
	}
	return res, nil
}

func (s *directSession) close() error { return nil }
