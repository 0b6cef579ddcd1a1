package verify

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strings"

	"pchls/internal/cdfg"
	"pchls/internal/library"
)

// FrontPoint is one non-dominated design found by the exhaustive
// multi-objective search: its four objective values plus one concrete
// witness design achieving them.
type FrontPoint struct {
	// FUArea is the functional-unit area (minimized).
	FUArea float64
	// Latency is the schedule makespan in cycles (minimized).
	Latency int
	// Peak is the maximum per-cycle power draw (minimized).
	Peak float64
	// Lifetime is the battery lifetime in schedule periods as reported by
	// the caller's lifetime function (maximized); 0 when no lifetime
	// function was supplied.
	Lifetime int
	// Start, Module, Level and FU describe the witness design: per-node
	// start cycle, library module index, voltage operating-point index,
	// and instance index.
	Start, Module, Level, FU []int
	// FUModules names the module of each allocated instance.
	FUModules []string
}

// VerifyInput converts the witness design into a Check input. The
// deadline is the point's own latency (the tightest constraint the
// design satisfies); the power cap is the one the search ran under.
func (p FrontPoint) VerifyInput(g *cdfg.Graph, lib *library.Library, powerMax float64) Input {
	n := len(p.Start)
	in := Input{
		Graph:          g,
		Library:        lib,
		Deadline:       p.Latency,
		PowerMax:       powerMax,
		Start:          append([]int(nil), p.Start...),
		Module:         make([]string, n),
		Level:          append([]int(nil), p.Level...),
		FU:             append([]int(nil), p.FU...),
		FUModules:      append([]string(nil), p.FUModules...),
		ReportedFUArea: p.FUArea,
	}
	for v := 0; v < n; v++ {
		in.Module[v] = lib.Module(p.Module[v]).Name
	}
	if in.Deadline < 1 {
		in.Deadline = 1
	}
	return in
}

// FrontCSV renders the front's objective tuples, one per line, in the
// order given. Witness designs are deliberately excluded: two searches
// over equivalent spaces must produce byte-identical tuple renderings
// even when recursion order picks different witnesses (the metamorphic
// tests rely on this).
func FrontCSV(front []FrontPoint) string {
	var b strings.Builder
	b.WriteString("fu_area,latency,peak_power,lifetime\n")
	for _, p := range front {
		fmt.Fprintf(&b, "%g,%d,%g,%d\n", p.FUArea, p.Latency, p.Peak, p.Lifetime)
	}
	return b.String()
}

// BruteFront exhaustively computes the exact Pareto front over
// (functional-unit area, latency, peak per-cycle power, battery
// lifetime) for a tiny graph: it enumerates every (module, operating
// point, start cycle) assignment within maxDeadline cycles and the
// per-cycle power cap (powerMax <= 0: uncapped), derives each complete
// schedule's four objectives, and keeps the non-dominated set.
//
// The search enumerates schedules, not bindings: for a fixed schedule
// and (module, level) assignment the minimal functional-unit area is
// computed directly, because binding within one (module, level) group is
// exactly interval partitioning — the minimal instance count equals the
// maximum number of group members executing in any one cycle, and a
// greedy first-free scan achieves it. This removes the exponential
// sharing branching of BruteForce while remaining exact.
//
// life maps a power profile (one entry per cycle, trimmed to the
// schedule makespan) to a battery lifetime in schedule periods; nil
// means the lifetime objective is identically 0 (the front degenerates
// to three objectives). Lifetime evaluations are memoized per distinct
// profile.
//
// The returned front is deduplicated on the objective tuple (the
// witness is the first design found achieving it, in deterministic
// recursion order) and sorted by (FUArea, Latency, Peak, -Lifetime).
func BruteFront(g *cdfg.Graph, lib *library.Library, maxDeadline int, powerMax float64, life func(profile []float64) int, opt BruteOptions) ([]FrontPoint, error) {
	opt = opt.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("verify: brute front: %w", err)
	}
	if maxDeadline <= 0 {
		return nil, fmt.Errorf("verify: brute front: deadline %d must be positive", maxDeadline)
	}
	if math.IsNaN(powerMax) || math.IsInf(powerMax, 0) {
		return nil, fmt.Errorf("verify: brute front: power cap %g must be finite", powerMax)
	}
	if g.N() > opt.MaxNodes {
		return nil, fmt.Errorf("verify: brute front: %d nodes > limit %d: %w", g.N(), opt.MaxNodes, ErrTooLarge)
	}
	if missing := lib.Covers(g); missing != nil {
		return nil, fmt.Errorf("verify: brute front: no module implements %v", missing)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	n := g.N()
	var (
		start    = make([]int, n)
		moduleOf = make([]int, n)
		levelOf  = make([]int, n)
		profile  = make([]float64, maxDeadline)
		exps     int
		over     bool
		seen     = map[[4]uint64]bool{}
		lifeMemo = map[string]int{}
		points   []FrontPoint
	)

	// lifetime evaluates the caller's lifetime function on the profile
	// prefix, memoized on the profile bytes.
	lifetime := func(latency int) int {
		if life == nil {
			return 0
		}
		key := make([]byte, 8*latency)
		for c := 0; c < latency; c++ {
			binary.LittleEndian.PutUint64(key[8*c:], math.Float64bits(profile[c]))
		}
		k := string(key)
		if v, ok := lifeMemo[k]; ok {
			return v
		}
		v := life(append([]float64(nil), profile[:latency]...))
		lifeMemo[k] = v
		return v
	}

	// leaf derives the complete schedule's objectives and, when its tuple
	// is new, materializes the minimal-area witness binding.
	leaf := func() {
		latency := 0
		for v := 0; v < n; v++ {
			if e := start[v] + lib.Module(moduleOf[v]).Level(levelOf[v]).Delay; e > latency {
				latency = e
			}
		}
		peak := 0.0
		for c := 0; c < latency; c++ {
			if profile[c] > peak {
				peak = profile[c]
			}
		}
		// Minimal area: per (module, level) group, the maximum number of
		// members executing in any one cycle, times the module area.
		type group struct {
			members []int
			need    int
		}
		groups := map[[2]int]*group{}
		var keys [][2]int
		area := 0.0
		for v := 0; v < n; v++ {
			k := [2]int{moduleOf[v], levelOf[v]}
			gr := groups[k]
			if gr == nil {
				gr = &group{}
				groups[k] = gr
				keys = append(keys, k)
			}
			gr.members = append(gr.members, v)
		}
		for _, k := range keys {
			gr := groups[k]
			d := lib.Module(k[0]).Level(k[1]).Delay
			for c := 0; c < latency; c++ {
				busy := 0
				for _, v := range gr.members {
					if start[v] <= c && c < start[v]+d {
						busy++
					}
				}
				if busy > gr.need {
					gr.need = busy
				}
			}
			area += float64(gr.need) * lib.Module(k[0]).Area
		}
		lt := lifetime(latency)
		tuple := [4]uint64{math.Float64bits(area), uint64(latency), math.Float64bits(peak), uint64(lt)}
		if seen[tuple] {
			return
		}
		seen[tuple] = true
		// Witness binding: greedy first-free interval partitioning per
		// group, members in start order — provably uses exactly `need`
		// instances per group.
		p := FrontPoint{
			FUArea:   area,
			Latency:  latency,
			Peak:     peak,
			Lifetime: lt,
			Start:    append([]int(nil), start...),
			Module:   append([]int(nil), moduleOf...),
			Level:    append([]int(nil), levelOf...),
			FU:       make([]int, n),
		}
		for _, k := range keys {
			gr := groups[k]
			d := lib.Module(k[0]).Level(k[1]).Delay
			members := append([]int(nil), gr.members...)
			sort.Slice(members, func(i, j int) bool { return start[members[i]] < start[members[j]] })
			base := len(p.FUModules)
			var freeAt []int
			for _, v := range members {
				f := -1
				for i, free := range freeAt {
					if free <= start[v] {
						f = i
						break
					}
				}
				if f < 0 {
					f = len(freeAt)
					freeAt = append(freeAt, 0)
					p.FUModules = append(p.FUModules, lib.Module(k[0]).Name)
				}
				freeAt[f] = start[v] + d
				p.FU[v] = base + f
			}
		}
		points = append(points, p)
	}

	var rec func(k int)
	rec = func(k int) {
		exps++
		if exps > opt.MaxExpansions {
			over = true
			return
		}
		if k == n {
			leaf()
			return
		}
		v := order[k]
		node := g.Node(v)
		earliest := 0
		for _, p := range g.Preds(v) {
			if e := start[p] + lib.Module(moduleOf[p]).Level(levelOf[p]).Delay; e > earliest {
				earliest = e
			}
		}
		for _, mi := range lib.Candidates(node.Op) {
			m := lib.Module(mi)
			moduleOf[v] = mi
			for li := 0; li < m.NumLevels(); li++ {
				lv := m.Level(li)
				if powerMax > 0 && lv.Power > powerMax+powerEps {
					continue
				}
				levelOf[v] = li
				for t := earliest; t+lv.Delay <= maxDeadline; t++ {
					if over {
						return
					}
					ok := true
					if powerMax > 0 {
						for c := t; c < t+lv.Delay; c++ {
							if profile[c]+lv.Power > powerMax+powerEps {
								ok = false
								break
							}
						}
					}
					if !ok {
						continue
					}
					start[v] = t
					// Restore the profile window by copy, not by
					// subtracting the power back out: (x+p)-p is not
					// bit-exact in floating point, and a drifting profile
					// would make a leaf's peak depend on which sibling
					// branches were explored before it. The metamorphic
					// front tests require leaf tuples to be a pure
					// function of the assignment.
					saved := append([]float64(nil), profile[t:t+lv.Delay]...)
					for c := t; c < t+lv.Delay; c++ {
						profile[c] += lv.Power
					}
					rec(k + 1)
					copy(profile[t:t+lv.Delay], saved)
				}
			}
		}
	}
	rec(0)
	if over {
		return nil, fmt.Errorf("verify: brute front: %w (budget %d)", ErrTooLarge, opt.MaxExpansions)
	}

	// Non-dominated filter: drop every point some other point weakly
	// dominates with at least one strict improvement. Tuples are unique
	// after dedup, so mutual weak domination (equality) cannot occur.
	front := points[:0:0]
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.FUArea <= p.FUArea && q.Latency <= p.Latency && q.Peak <= p.Peak && q.Lifetime >= p.Lifetime &&
				(q.FUArea < p.FUArea || q.Latency < p.Latency || q.Peak < p.Peak || q.Lifetime > p.Lifetime) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].FUArea != front[j].FUArea {
			return front[i].FUArea < front[j].FUArea
		}
		if front[i].Latency != front[j].Latency {
			return front[i].Latency < front[j].Latency
		}
		if front[i].Peak != front[j].Peak {
			return front[i].Peak < front[j].Peak
		}
		return front[i].Lifetime > front[j].Lifetime
	})
	return front, nil
}
