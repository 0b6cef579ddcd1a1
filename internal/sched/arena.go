package sched

import "pchls/internal/cdfg"

// Arena is per-synthesis scratch storage for the schedulers. A single
// synthesis runs pasap/palap hundreds to thousands of times over the same
// graph; without an arena every run reallocates its topological-order
// buffers, its power profile, the reversed graph of the palap pass, and
// the pin/fixed conversion slices. An Arena, passed via Options.Arena,
// caches the graph-invariant artifacts (topological orders, the reversed
// graph) and recycles the per-run buffers, making the steady-state
// scheduler hot path allocation-free apart from the returned Schedule.
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

	// pasapPinned scratch.
	profile []float64

	// palapPinned scratch (distinct from the buffers the nested pasap run
	// on the reversed graph uses).
	rbase  []float64
	rfixed []int
	rpin   []int

	// windowsPinned pin scratch.
	pin []int
}

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
