package sched

import "pchls/internal/cdfg"

// Arena is per-synthesis scratch storage for the schedulers. A single
// synthesis runs pasap/palap hundreds to thousands of times over the same
// graph; without an arena every run reallocates its topological-order
// buffers, its power profile, the reversed graph of the palap pass, and
// the base/fixed conversion slices. An Arena, passed via Options.Arena,
// caches the graph-invariant artifacts (topological orders, the reversed
// graph) and recycles the per-run buffers, making the steady-state
// scheduler hot path allocation-free apart from the returned Schedule
// (PASAPStarts/PALAPStarts write into the caller's buffer instead).
// With module delays of at least 1, the critical-first selection order of
// every run is one counting sort of the nodes by their delay-weighted path
// to a sink, O(V+E+P) with P the critical-path length, over the arena's
// priority, bucket and order buffers.
//
// An Arena is bound to one graph and is NOT safe for concurrent use: it
// must be owned by a single scheduler caller (the synthesizer gives each
// state its own). Schedulers silently ignore an arena whose graph does
// not match, so a misrouted arena can never corrupt results.
type Arena struct {
	g   *cdfg.Graph
	rev *cdfg.Graph // lazily built reverse of g, for palap

	topo  []cdfg.NodeID // cached topological order of g
	rtopo []cdfg.NodeID // cached topological order of rev

	// criticalFirstOrder scratch: bucket holds one counting-sort offset
	// per priority, so it grows to the critical-path length.
	prio   []int
	bucket []int
	order  []cdfg.NodeID

	// pasapWithin's power profile. Between runs it is zero everywhere
	// but in [0, dirty) and in spans, the cycles the last run wrote, so
	// the next run clears those instead of its whole horizon: a palap
	// horizon is the deadline, which can be far longer than the cycles
	// a run touches.
	profile []float64
	dirty   int
	spans   []span

	// PALAP scratch (distinct from the buffers the nested pasap run on the
	// reversed graph uses).
	rbase  []float64
	rfixed []int
	rrel   []int
	rdue   []int
	rstart []int

	// Replay scratch (Reference): the re-ranked nodes, their new
	// priorities, and membership flags that are all false between runs.
	moved   []cdfg.NodeID
	newPrio []int
	isMoved []bool
}

// span is a half-open cycle interval [lo, hi).
type span struct{ lo, hi int }

// spanGap is how far past the dirty prefix (or the last span) a write may
// start and still extend it: clearing a few untouched zero cycles is
// cheaper than tracking one more span.
const spanGap = 64

// NewArena returns an arena bound to g. All buffers are grown lazily.
func NewArena(g *cdfg.Graph) *Arena { return &Arena{g: g} }

// owns reports whether the arena's cached artifacts apply to g.
func (a *Arena) owns(g *cdfg.Graph) bool {
	return a != nil && (g == a.g || (a.rev != nil && g == a.rev))
}

// topoFor returns the cached topological order of g (computing it once),
// or a fresh one when g is foreign to the arena.
func (a *Arena) topoFor(g *cdfg.Graph) ([]cdfg.NodeID, error) {
	switch {
	case a != nil && g == a.g:
		if a.topo == nil {
			t, err := g.TopoOrder()
			if err != nil {
				return nil, err
			}
			a.topo = t
		}
		return a.topo, nil
	case a != nil && a.rev != nil && g == a.rev:
		if a.rtopo == nil {
			t, err := g.TopoOrder()
			if err != nil {
				return nil, err
			}
			a.rtopo = t
		}
		return a.rtopo, nil
	}
	return g.TopoOrder()
}

// TopoOrder returns the topological order of the arena's graph, the one
// cdfg.Graph.TopoOrder gives, computed once and shared with the runs: the
// caller must not modify it.
func (a *Arena) TopoOrder() ([]cdfg.NodeID, error) { return a.topoFor(a.g) }

// reverseOf returns the cached reversed graph of g (building it once), or
// a fresh reversal when g is foreign to the arena.
func (a *Arena) reverseOf(g *cdfg.Graph) *cdfg.Graph {
	if a != nil && g == a.g {
		if a.rev == nil {
			a.rev = g.Reverse()
		}
		return a.rev
	}
	return g.Reverse()
}

// profileFor returns pasapWithin's profile for a run: horizon cycles,
// zero but for base copied into its start. Without an arena it is fresh.
func (a *Arena) profileFor(horizon int, base []float64) []float64 {
	if a == nil {
		p := make([]float64, horizon)
		copy(p, base)
		return p
	}
	if cap(a.profile) < horizon {
		// Automatic pasap horizons vary with the delays of each run, so
		// grow geometrically rather than once per new maximum.
		a.profile = make([]float64, max(horizon, 2*cap(a.profile)))
	} else {
		full := a.profile[:cap(a.profile)]
		clear(full[:a.dirty])
		for _, s := range a.spans {
			clear(full[s.lo:s.hi])
		}
	}
	a.spans = a.spans[:0]
	p := a.profile[:horizon]
	a.dirty = copy(p, base)
	return p
}

// wroteFar records that the current run wrote profile cycles [lo, hi)
// past the dirty prefix (pasapWithin extends the prefix itself): it
// extends the last span or starts a new one.
func (a *Arena) wroteFar(lo, hi int) {
	if a == nil {
		return
	}
	if n := len(a.spans); n > 0 && a.spans[n-1].lo <= lo && lo <= a.spans[n-1].hi+spanGap {
		a.spans[n-1].hi = max(a.spans[n-1].hi, hi)
		return
	}
	a.spans = append(a.spans, span{lo, hi})
}

// The grow helpers resize a recycled buffer to n elements without
// clearing: every caller fully overwrites or clears the returned slice.

func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growIDs(buf *[]cdfg.NodeID, n int) []cdfg.NodeID {
	if cap(*buf) < n {
		*buf = make([]cdfg.NodeID, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growBools(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	*buf = (*buf)[:n]
	return *buf
}
