package core

import (
	"errors"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/clique"
	"pchls/internal/library"
	"pchls/internal/sched"
)

func TestCliquePartitionModeProducesValidDesigns(t *testing.T) {
	cases := []struct {
		name string
		T    int
		P    float64
	}{
		{"hal", 12, 0}, {"hal", 17, 10},
		{"cosine", 15, 0}, {"elliptic", 22, 0},
		{"fir16", 30, 20},
	}
	for _, tc := range cases {
		g, err := bench.ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := SynthesizeCliquePartition(g, library.Table1(), Constraints{Deadline: tc.T, PowerMax: tc.P}, Config{})
		if err != nil {
			t.Errorf("%s T=%d P=%g: %v", tc.name, tc.T, tc.P, err)
			continue
		}
		checkDesign(t, d, tc.T, tc.P)
	}
}

func TestCliquePartitionModeSharesFUs(t *testing.T) {
	g := bench.HAL()
	d, err := SynthesizeCliquePartition(g, library.Table1(), Constraints{Deadline: 17, PowerMax: 10}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.FUs) >= g.N() {
		t.Fatalf("no sharing: %d FUs for %d nodes", len(d.FUs), g.N())
	}
}

func TestCliquePartitionModeRejectsBadInput(t *testing.T) {
	g := bench.HAL()
	if _, err := SynthesizeCliquePartition(g, library.Table1(), Constraints{Deadline: 0}, Config{}); err == nil {
		t.Fatal("accepted zero deadline")
	}
	lib, _ := library.Table1Without(library.NameMulSer, library.NameMulPar)
	if _, err := SynthesizeCliquePartition(g, lib, Constraints{Deadline: 17}, Config{}); err == nil {
		t.Fatal("accepted uncovered library")
	}
}

func TestIncrementalBeatsOrMatchesStaticNearKnee(t *testing.T) {
	// The DESIGN.md ablation: near the feasibility knee the incremental
	// algorithm (windows re-derived per decision, backtrack-and-lock
	// repair) should solve at least as many points as the static
	// clique-partition formulation, and never with worse area when both
	// succeed... area may differ either way in the loose region, so the
	// assertion is about feasibility count plus the tight-point areas.
	g := bench.HAL()
	lib := library.Table1()
	grid := []float64{5.5, 6, 7, 8, 10, 14, 20}
	incOK, staticOK := 0, 0
	for _, p := range grid {
		cons := Constraints{Deadline: 17, PowerMax: p}
		if _, err := Synthesize(g, lib, cons, Config{}); err == nil {
			incOK++
		}
		if _, err := SynthesizeCliquePartition(g, lib, cons, Config{}); err == nil {
			staticOK++
		}
	}
	if incOK < staticOK {
		t.Fatalf("incremental solved %d points, static %d", incOK, staticOK)
	}
	if incOK == 0 {
		t.Fatal("grid too hard for both variants; test is vacuous")
	}
}

// TestEvictNodeDoesNotMutateSharedBacking is the regression test for the
// shared-backing-array bug: evictNode must build the shrunken block in a
// fresh slice, because appending block[k+1:] onto block[:k] shifts
// elements inside the backing array and corrupts any alias of the
// original block.
func TestEvictNodeDoesNotMutateSharedBacking(t *testing.T) {
	block := []int{1, 2, 3}
	alias := block[:3] // shares the backing array with p[0]
	p := clique.Partition{block, {4}}
	got := evictNode(p, 2)
	if alias[0] != 1 || alias[1] != 2 || alias[2] != 3 {
		t.Fatalf("evictNode mutated the original block through its backing array: %v", alias)
	}
	if len(got) != 3 {
		t.Fatalf("partition has %d blocks, want 3: %v", len(got), got)
	}
	if len(got[0]) != 2 || got[0][0] != 1 || got[0][1] != 3 {
		t.Fatalf("shrunken block = %v, want [1 3]", got[0])
	}
	if len(got[2]) != 1 || got[2][0] != 2 {
		t.Fatalf("evicted block = %v, want [2]", got[2])
	}
}

// repairFixture builds a tiny synthesizer state plus reachability for the
// repairPack unit tests. All operations are additions (delay 1), so the
// packed cycle arithmetic is exact.
func repairFixture(t *testing.T, deadline int, build func(g *cdfg.Graph) []cdfg.NodeID) (*cdfg.Graph, *state, cdfg.Bitmat, []cdfg.NodeID) {
	t.Helper()
	g := cdfg.New("repair")
	ids := build(g)
	st := newTestState(t, g, Constraints{Deadline: deadline})
	reach, err := g.Reachability()
	if err != nil {
		t.Fatal(err)
	}
	return g, st, reach, ids
}

// TestRepairPackEvictsDeviatingAncestor drives the repair loop down its
// primary branch: the packed schedule misses the deadline at node v, and
// the repair evicts not v but its ancestor p — the shareable node packed
// beyond its static window — after which the packing fits.
//
// Layout: q and p are independent adds sharing one instance; q -> w and
// p -> v are chains. Sharing delays p to cycle 1 (past its static Late
// of 0), which pushes v to end at cycle 3 > T=2. Evicting p onto its own
// instance lets it run at 0 and the whole graph packs.
func TestRepairPackEvictsDeviatingAncestor(t *testing.T) {
	g, st, reach, ids := repairFixture(t, 2, func(g *cdfg.Graph) []cdfg.NodeID {
		q := g.MustAddNode("q", cdfg.Add)
		p := g.MustAddNode("p", cdfg.Add)
		w := g.MustAddNode("w", cdfg.Add)
		v := g.MustAddNode("v", cdfg.Add)
		g.MustAddEdge(q, w)
		g.MustAddEdge(p, v)
		return []cdfg.NodeID{q, p, w, v}
	})
	q, p, w, v := ids[0], ids[1], ids[2], ids[3]
	// Indexed by node ID: q=0, p=1, w=2, v=3.
	windows := []sched.Window{
		{Early: 0, Late: 0}, {Early: 0, Late: 0},
		{Early: 1, Late: 1}, {Early: 1, Late: 1},
	}
	partition := clique.Partition{{int(q), int(p)}, {int(w)}, {int(v)}}
	repaired, err := repairPack(g, st, windows, reach, partition)
	if err != nil {
		t.Fatalf("repairPack: %v", err)
	}
	if len(repaired) != 4 {
		t.Fatalf("repaired partition has %d blocks, want 4 (p evicted): %v", len(repaired), repaired)
	}
	lastBlock := repaired[len(repaired)-1]
	if len(lastBlock) != 1 || lastBlock[0] != int(p) {
		t.Fatalf("evicted block = %v, want [%d] (the deviating ancestor)", lastBlock, p)
	}
	if st.start[p] != 0 || st.start[v] != 1 {
		t.Fatalf("repacked starts p=%d v=%d, want 0 and 1", st.start[p], st.start[v])
	}
}

// TestRepairPackFallsBackToViolator covers the no-deviating-ancestor
// branch: two independent adds share one instance under T=1, so the
// second one cannot fit, and no ancestor exists to evict — the repair
// must fall back to evicting the violator itself.
func TestRepairPackFallsBackToViolator(t *testing.T) {
	g, st, reach, ids := repairFixture(t, 1, func(g *cdfg.Graph) []cdfg.NodeID {
		x := g.MustAddNode("x", cdfg.Add)
		y := g.MustAddNode("y", cdfg.Add)
		return []cdfg.NodeID{x, y}
	})
	x, y := ids[0], ids[1]
	windows := []sched.Window{{Early: 0, Late: 0}, {Early: 0, Late: 0}}
	partition := clique.Partition{{int(x), int(y)}}
	repaired, err := repairPack(g, st, windows, reach, partition)
	if err != nil {
		t.Fatalf("repairPack: %v", err)
	}
	if len(repaired) != 2 {
		t.Fatalf("repaired partition has %d blocks, want 2: %v", len(repaired), repaired)
	}
	if st.start[x] != 0 || st.start[y] != 0 {
		t.Fatalf("repacked starts x=%d y=%d, want both 0", st.start[x], st.start[y])
	}
}

// TestRepairPackTerminatesOnAllSingletons pins the termination argument:
// once every block is a singleton no eviction can help, and the repair
// must report infeasibility instead of looping. A two-add chain cannot
// meet T=1 under any partition.
func TestRepairPackTerminatesOnAllSingletons(t *testing.T) {
	g, st, reach, ids := repairFixture(t, 1, func(g *cdfg.Graph) []cdfg.NodeID {
		a := g.MustAddNode("a", cdfg.Add)
		b := g.MustAddNode("b", cdfg.Add)
		g.MustAddEdge(a, b)
		return []cdfg.NodeID{a, b}
	})
	a, b := ids[0], ids[1]
	windows := []sched.Window{{Early: 0, Late: 0}, {Early: 0, Late: 0}}
	partition := clique.Partition{{int(a)}, {int(b)}}
	repaired, err := repairPack(g, st, windows, reach, partition)
	if err == nil {
		t.Fatalf("repairPack accepted an unsatisfiable deadline: %v", repaired)
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("error %v is not ErrInfeasible", err)
	}
	if repaired != nil {
		t.Fatalf("failed repair returned a partition: %v", repaired)
	}
}

// TestRepairPackConvergesFromOneBlock exercises repeated evictions: all
// four adds of two independent 2-chains crammed into a single instance
// need several rounds of repair before the packing fits, and the loop's
// partition-growth bound guarantees it gets there.
func TestRepairPackConvergesFromOneBlock(t *testing.T) {
	g, st, reach, ids := repairFixture(t, 2, func(g *cdfg.Graph) []cdfg.NodeID {
		a := g.MustAddNode("a", cdfg.Add)
		b := g.MustAddNode("b", cdfg.Add)
		c := g.MustAddNode("c", cdfg.Add)
		d := g.MustAddNode("d", cdfg.Add)
		g.MustAddEdge(a, c)
		g.MustAddEdge(b, d)
		return []cdfg.NodeID{a, b, c, d}
	})
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]
	// Indexed by node ID: a=0, b=1, c=2, d=3.
	windows := []sched.Window{
		{Early: 0, Late: 0}, {Early: 0, Late: 0},
		{Early: 1, Late: 1}, {Early: 1, Late: 1},
	}
	partition := clique.Partition{{int(a), int(b), int(c), int(d)}}
	repaired, err := repairPack(g, st, windows, reach, partition)
	if err != nil {
		t.Fatalf("repairPack: %v", err)
	}
	if len(repaired) < 2 {
		t.Fatalf("repair did not split the overfull block: %v", repaired)
	}
	for _, id := range []cdfg.NodeID{a, b} {
		if st.start[id] != 0 {
			t.Fatalf("chain head %d starts at %d, want 0", id, st.start[id])
		}
	}
	for _, id := range []cdfg.NodeID{c, d} {
		if st.start[id] != 1 {
			t.Fatalf("chain tail %d starts at %d, want 1", id, st.start[id])
		}
	}
}

func TestCanShareDependent(t *testing.T) {
	// a -> b, delay 2. b can start at a.Early+2 iff its Late allows.
	a := sched.Window{Early: 0, Late: 4}
	b := sched.Window{Early: 2, Late: 6}
	if !canShare(a, b, 2, true, false) {
		t.Fatal("dependent pair with room rejected")
	}
	// b locked before a can possibly finish.
	b = sched.Window{Early: 1, Late: 1}
	if canShare(a, b, 2, true, false) {
		t.Fatal("dependent pair without room accepted")
	}
	// Same pair presented in swapped argument order (b first, a second,
	// with a preceding b): still not shareable.
	if canShare(b, a, 2, false, true) {
		t.Fatal("swapped dependent pair without room accepted")
	}
	// Reversed dependency with room: first op {2,6}, preceded by {0,4}.
	if !canShare(sched.Window{Early: 2, Late: 6}, a, 2, false, true) {
		t.Fatal("reversed dependency with room rejected")
	}
}

func TestCanShareIndependent(t *testing.T) {
	// Disjoint windows always shareable.
	a := sched.Window{Early: 0, Late: 0}
	b := sched.Window{Early: 5, Late: 5}
	if !canShare(a, b, 2, false, false) {
		t.Fatal("disjoint independent pair rejected")
	}
	// Forced overlap: both locked to the same cycle.
	a = sched.Window{Early: 3, Late: 3}
	b = sched.Window{Early: 3, Late: 3}
	if canShare(a, b, 2, false, false) {
		t.Fatal("forced-overlap pair accepted")
	}
	// One can slide after the other.
	b = sched.Window{Early: 3, Late: 5}
	if !canShare(a, b, 2, false, false) {
		t.Fatal("slidable pair rejected")
	}
}
