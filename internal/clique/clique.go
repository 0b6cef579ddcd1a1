// Package clique implements clique partitioning on undirected compatibility
// graphs: partitioning the vertex set into groups whose members are all
// pairwise compatible. In high-level synthesis a clique of the (time-
// extended) compatibility graph is a set of operations that can share one
// functional unit, or a set of values that can share one register.
//
// Three solvers are provided: a greedy maximum-gain merger (the paper's
// "evaluate and pick a best decision" strategy generalized to an arbitrary
// gain function), the Tseng-Siewiorek common-neighbour heuristic, and an
// exact branch-and-bound partitioner usable as a test oracle on small
// graphs.
package clique

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is an undirected compatibility graph over vertices 0..n-1. The
// zero value is unusable; create with New.
type Graph struct {
	n   int
	adj []bool // row-major n x n, symmetric, false diagonal
}

// New returns an empty compatibility graph with n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("clique: New(%d)", n))
	}
	return &Graph{n: n, adj: make([]bool, n*n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// SetCompatible marks u and v as pairwise compatible. Self-pairs are
// ignored (a vertex is trivially compatible with itself).
func (g *Graph) SetCompatible(u, v int) {
	if u == v {
		return
	}
	g.adj[u*g.n+v] = true
	g.adj[v*g.n+u] = true
}

// Compatible reports whether u and v may share a clique.
func (g *Graph) Compatible(u, v int) bool {
	return u == v || g.adj[u*g.n+v]
}

// Degree returns the number of vertices compatible with u.
func (g *Graph) Degree(u int) int {
	d := 0
	for v := 0; v < g.n; v++ {
		if g.adj[u*g.n+v] {
			d++
		}
	}
	return d
}

// Edges returns the number of compatible pairs.
func (g *Graph) Edges() int {
	e := 0
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if g.adj[u*g.n+v] {
				e++
			}
		}
	}
	return e
}

// IsClique reports whether every pair in the set is compatible.
func (g *Graph) IsClique(set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if !g.Compatible(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// Partition is a disjoint cover of the vertices by cliques.
type Partition [][]int

// Validate checks that p covers every vertex of g exactly once and that
// every block is a clique.
func (p Partition) Validate(g *Graph) error {
	seen := make([]bool, g.N())
	for bi, block := range p {
		if len(block) == 0 {
			return fmt.Errorf("clique: block %d is empty", bi)
		}
		for _, v := range block {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("clique: block %d contains out-of-range vertex %d", bi, v)
			}
			if seen[v] {
				return fmt.Errorf("clique: vertex %d appears in more than one block", v)
			}
			seen[v] = true
		}
		if !g.IsClique(block) {
			return fmt.Errorf("clique: block %d %v is not a clique", bi, block)
		}
	}
	for v, ok := range seen {
		if !ok {
			return fmt.Errorf("clique: vertex %d is not covered", v)
		}
	}
	return nil
}

// normalize sorts vertices within blocks and blocks by first vertex, for
// deterministic output.
func (p Partition) normalize() Partition {
	for _, b := range p {
		sort.Ints(b)
	}
	sort.Slice(p, func(i, j int) bool { return p[i][0] < p[j][0] })
	return p
}

// GainFunc scores a candidate merge of two cliques. It returns the gain of
// merging (higher is better) and whether the merge is admissible beyond
// pairwise compatibility (e.g. resource-specific feasibility). The solver
// only calls it on pairwise-compatible unions.
type GainFunc func(a, b []int) (gain float64, ok bool)

// Greedy partitions g by repeatedly merging the pair of current cliques
// with the highest positive gain, starting from singletons, until no
// admissible merge with gain >= 0 remains. Ties break toward the
// lexicographically smallest pair for determinism. A nil gain function
// means "always gain 1", reducing to greedy clique-count minimization.
func Greedy(g *Graph, gain GainFunc) Partition {
	if gain == nil {
		gain = func(a, b []int) (float64, bool) { return 1, true }
	}
	blocks := make([][]int, g.N())
	for v := 0; v < g.N(); v++ {
		blocks[v] = []int{v}
	}
	compatible := func(a, b []int) bool {
		for _, u := range a {
			for _, v := range b {
				if !g.Compatible(u, v) {
					return false
				}
			}
		}
		return true
	}
	for {
		bi, bj, best := -1, -1, -1.0
		for i := 0; i < len(blocks); i++ {
			for j := i + 1; j < len(blocks); j++ {
				if !compatible(blocks[i], blocks[j]) {
					continue
				}
				gv, ok := gain(blocks[i], blocks[j])
				if !ok || gv < 0 {
					continue
				}
				if gv > best {
					bi, bj, best = i, j, gv
				}
			}
		}
		if bi < 0 {
			break
		}
		blocks[bi] = append(blocks[bi], blocks[bj]...)
		blocks = append(blocks[:bj], blocks[bj+1:]...)
	}
	return Partition(blocks).normalize()
}

// TsengSiewiorek partitions g with the classical common-neighbour
// heuristic of Tseng and Siewiorek: repeatedly merge the compatible pair
// of super-vertices with the most common neighbours in the super-vertex
// graph, ties to the pair whose merge deletes the fewest edges, then to
// the smallest indices. The merged super-vertex keeps its edges to the
// common neighbours only. It tends to preserve future merge opportunities
// and usually produces few cliques.
func TsengSiewiorek(g *Graph) Partition {
	n := g.N()
	// adj is the super-vertex graph, row-major like g.adj: two supers are
	// adjacent iff every cross pair is compatible. A merged-away super's
	// row and column are cleared.
	adj := slices.Clone(g.adj)
	supers := make([][]int, n)
	for v := range supers {
		supers[v] = []int{v}
	}
	for {
		bi, bj, best, bestDel := -1, -1, -1, 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !adj[i*n+j] {
					continue
				}
				common, del := 0, 0
				for w := 0; w < n; w++ {
					a, b := adj[i*n+w], adj[j*n+w]
					if a && b {
						common++
					} else if a != b && w != i && w != j {
						del++
					}
				}
				if common > best || common == best && del < bestDel {
					bi, bj, best, bestDel = i, j, common, del
				}
			}
		}
		if bi < 0 {
			break
		}
		supers[bi] = append(supers[bi], supers[bj]...)
		supers[bj] = nil
		for w := 0; w < n; w++ {
			keep := adj[bi*n+w] && adj[bj*n+w]
			adj[bi*n+w], adj[w*n+bi] = keep, keep
			adj[bj*n+w], adj[w*n+bj] = false, false
		}
	}
	var p Partition
	for _, s := range supers {
		if s != nil {
			p = append(p, s)
		}
	}
	return p.normalize()
}

// MaxExactVertices bounds the exact solver; beyond this it refuses.
const MaxExactVertices = 24

// ExactMinCliques returns a partition of g into the minimum possible
// number of cliques (equivalently, an optimal colouring of the complement
// graph), via branch and bound with a greedy upper bound. It returns an
// error for graphs with more than MaxExactVertices vertices — it is a test
// oracle, not a production solver.
func ExactMinCliques(g *Graph) (Partition, error) {
	n := g.N()
	if n > MaxExactVertices {
		return nil, fmt.Errorf("clique: exact solver limited to %d vertices, got %d", MaxExactVertices, n)
	}
	if n == 0 {
		return Partition{}, nil
	}
	// Upper bound from the common-neighbour heuristic.
	best := TsengSiewiorek(g)
	bestK := len(best)

	// Branch and bound: assign vertices in order; vertex v joins one of
	// the existing cliques (if compatible with all members) or opens a new
	// one. Prune when the clique count reaches the incumbent.
	blocks := make([][]int, 0, n)
	var rec func(v int)
	rec = func(v int) {
		if len(blocks) >= bestK {
			return // cannot beat the incumbent
		}
		if v == n {
			cp := make(Partition, len(blocks))
			for i, b := range blocks {
				cp[i] = append([]int(nil), b...)
			}
			best = cp
			bestK = len(cp)
			return
		}
		for i := range blocks {
			ok := true
			for _, u := range blocks[i] {
				if !g.Compatible(u, v) {
					ok = false
					break
				}
			}
			if ok {
				blocks[i] = append(blocks[i], v)
				rec(v + 1)
				blocks[i] = blocks[i][:len(blocks[i])-1]
			}
		}
		blocks = append(blocks, []int{v})
		rec(v + 1)
		blocks = blocks[:len(blocks)-1]
	}
	rec(0)
	return best.normalize(), nil
}
