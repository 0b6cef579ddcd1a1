package bind

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/library"
)

// firstFit is the reference left-edge allocation: lifetimes sorted by
// (birth, producer), each packed into the lowest-numbered register whose
// occupant has expired, scanning every register.
func firstFit(lifetimes []Lifetime) []Register {
	sorted := slices.Clone(lifetimes)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Birth != sorted[j].Birth {
			return sorted[i].Birth < sorted[j].Birth
		}
		return sorted[i].Producer < sorted[j].Producer
	})
	var regs []Register
	var regLast []int
	for _, lt := range sorted {
		r := 0
		for r < len(regs) && regLast[r] >= lt.Birth {
			r++
		}
		if r == len(regs) {
			regs = append(regs, Register{})
			regLast = append(regLast, 0)
		}
		regs[r].Values = append(regs[r].Values, lt.Producer)
		regLast[r] = lt.LastUse
	}
	return regs
}

// referenceArea is the reference cost function: firstFit registers, and
// multiplexer inputs counted with one set of distinct sources per
// instance port and per register.
func referenceArea(g *cdfg.Graph, start, delay []int, fus []FU, fuOf []int, cm CostModel) float64 {
	lts := appendLifetimes(nil, g, start, delay)
	regs := firstFit(lts)
	regOf := map[cdfg.NodeID]int{}
	for r, reg := range regs {
		for _, v := range reg.Values {
			regOf[v] = r
		}
	}
	fuArea, mux := 0.0, 0
	for _, fu := range fus {
		fuArea += fu.Module.Area
		for port := 0; ; port++ {
			sources, used := map[int]bool{}, false
			for _, op := range fu.Ops {
				if preds := g.Preds(op); port < len(preds) {
					used = true
					if r, ok := regOf[preds[port]]; ok {
						sources[r] = true
					}
				}
			}
			if !used {
				break
			}
			mux += max(len(sources)-1, 0)
		}
	}
	for _, reg := range regs {
		writers := map[int]bool{}
		for _, v := range reg.Values {
			writers[fuOf[v]] = true
		}
		mux += len(writers) - 1
	}
	return fuArea + float64(len(regs))*cm.RegisterArea + float64(mux)*cm.MuxInputArea
}

// TestLeftEdgeMatchesFirstFit: the heap-and-bitset left-edge must make the
// register assignment of the plain first-fit scan, value for value, on
// lifetimes in any input order with tied births.
func TestLeftEdgeMatchesFirstFit(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		lts := make([]Lifetime, n)
		for i, p := range rng.Perm(n) {
			birth := rng.Intn(1 + n/3)
			lts[i] = Lifetime{Producer: cdfg.NodeID(p), Birth: birth, LastUse: birth + rng.Intn(12) - 1}
		}
		got, want := LeftEdge(lts), firstFit(lts)
		if !slices.EqualFunc(got, want, func(a, b Register) bool { return slices.Equal(a.Values, b.Values) }) {
			t.Fatalf("seed %d: LeftEdge %v, first fit %v", seed, got, want)
		}
	}
}

// TestPricerMatchesReference prices random schedules and bindings of
// generated graphs on one reused Pricer per graph, whose left-edge order
// carries over from call to call, and requires the reference cost
// function's area bit for bit.
func TestPricerMatchesReference(t *testing.T) {
	cm := DefaultCostModel()
	lib := library.Table1()
	priced := 0
	for seed := int64(0); seed < 40; seed++ {
		g := gen.Graph(seed, gen.GraphConfig{Nodes: 10 + int(seed)*5, Blocks: 1 + int(seed%3)})
		rng := rand.New(rand.NewSource(seed))
		var p Pricer
		start, delay := make([]int, g.N()), make([]int, g.N())
		for round := 0; round < 30; round++ {
			for v := range start {
				if round == 0 || rng.Intn(8) == 0 {
					start[v], delay[v] = rng.Intn(3*g.N()), 1+rng.Intn(3)
				}
			}
			// Bind the nodes of each op class onto a few instances at random.
			var fus []FU
			fuOf := make([]int, g.N())
			first := map[cdfg.Op]int{}
			for _, n := range g.Nodes() {
				m, err := lib.Fastest(n.Op)
				if err != nil {
					t.Fatal(err)
				}
				f, ok := first[n.Op]
				if !ok || rng.Intn(3) == 0 {
					f = len(fus)
					fus = append(fus, FU{Module: m})
					if !ok {
						first[n.Op] = f
					}
				}
				fus[f].Ops = append(fus[f].Ops, n.ID)
				fuOf[n.ID] = f
			}
			p.Registers(g, start, delay)
			got := p.Area(g, cm, len(fus), func(f int) (*library.Module, []cdfg.NodeID) { return fus[f].Module, fus[f].Ops }, fuOf)
			want := referenceArea(g, start, delay, fus, fuOf, cm)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("graph seed %d round %d: priced %v, reference %v", seed, round, got, want)
			}
			priced++
		}
	}
	t.Logf("%d pricings compared", priced)
}
