package verify

import (
	"errors"
	"fmt"
	"math"

	"pchls/internal/cdfg"
	"pchls/internal/library"
)

// ErrTooLarge is returned when an exhaustive search exceeds its node or
// expansion budget; the brute-force oracle is only meaningful when the
// space is fully covered, so a partial search is an error, never a
// silently weaker verdict.
var ErrTooLarge = errors.New("verify: instance too large for exhaustive search")

// BruteOptions bounds the exhaustive searches.
type BruteOptions struct {
	// MaxNodes rejects graphs with more nodes than this (<= 0: 8). The
	// search is exponential; the oracle is intended for <= 6 operations
	// plus their transfers.
	MaxNodes int
	// MaxExpansions bounds search-tree nodes (<= 0: 20 million).
	MaxExpansions int
}

func (o BruteOptions) withDefaults() BruteOptions {
	if o.MaxNodes <= 0 {
		o.MaxNodes = 8
	}
	if o.MaxExpansions <= 0 {
		o.MaxExpansions = 20_000_000
	}
	return o
}

// BruteResult is the verdict of the exhaustive reference synthesizer.
type BruteResult struct {
	// Feasible reports whether any (module selection, schedule, binding)
	// combination satisfies the constraints.
	Feasible bool
	// FUArea is the provably minimal functional-unit area over the whole
	// space (meaningful only when Feasible).
	FUArea float64
	// Start, Module, Level and FU describe one optimal solution: per-node
	// start cycle, library module index, voltage operating-point index
	// within that module, and instance index.
	Start, Module, Level, FU []int
	// Expansions counts visited search-tree nodes, for reporting.
	Expansions int
}

// BruteForce exhaustively solves the joint scheduling/allocation/binding
// problem the heuristic approximates: over every combination of module
// selection, voltage operating point, power- and latency-feasible
// schedule, and binding onto instances, it finds the minimum total
// functional-unit area. Two operations may share an instance only when
// they agree on both the module and the operating point (an instance is
// fixed at one supply voltage). It shares nothing with the engine — the
// only pruning is against its own best solution found so far (plain
// branch-and-bound, still exact) — and is the differential oracle for
// tiny graphs.
//
// The objective is functional-unit area only, matching the primary term
// of the paper's cost function; registers and interconnect are secondary
// and depend on binding details the oracle does not model.
func BruteForce(g *cdfg.Graph, lib *library.Library, deadline int, powerMax float64, opt BruteOptions) (*BruteResult, error) {
	opt = opt.withDefaults()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("verify: brute force: %w", err)
	}
	if deadline <= 0 {
		return nil, fmt.Errorf("verify: brute force: deadline %d must be positive", deadline)
	}
	if math.IsNaN(powerMax) || math.IsInf(powerMax, 0) {
		return nil, fmt.Errorf("verify: brute force: power cap %g must be finite", powerMax)
	}
	if g.N() > opt.MaxNodes {
		return nil, fmt.Errorf("verify: brute force: %d nodes > limit %d: %w", g.N(), opt.MaxNodes, ErrTooLarge)
	}
	if missing := lib.Covers(g); missing != nil {
		return nil, fmt.Errorf("verify: brute force: no module implements %v", missing)
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
		fuOf     = make([]int, n)
		profile  = make([]float64, deadline)
		// instModule[f]/instLevel[f] identify instance f's module and fixed
		// operating point; its occupancy is recovered by walking the
		// already-placed prefix of the order.
		instModule []int
		instLevel  []int
		fuArea     float64
		best       *BruteResult
		bestArea   = 1e18
		exps       int
		over       bool
	)

	// occupied reports whether instance f already executes during [s, e).
	occupied := func(f, s, e, upto int) bool {
		for k := 0; k < upto; k++ {
			v := order[k]
			if fuOf[v] != f {
				continue
			}
			d := lib.Module(moduleOf[v]).Level(levelOf[v]).Delay
			if start[v] < e && s < start[v]+d {
				return true
			}
		}
		return false
	}

	var rec func(k int)
	rec = func(k int) {
		exps++
		if exps > opt.MaxExpansions {
			over = true
			return
		}
		if fuArea >= bestArea {
			return
		}
		if k == n {
			bestArea = fuArea
			best = &BruteResult{
				Feasible: true,
				FUArea:   fuArea,
				Start:    append([]int(nil), start...),
				Module:   append([]int(nil), moduleOf...),
				Level:    append([]int(nil), levelOf...),
				FU:       append([]int(nil), fuOf...),
			}
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
				for t := earliest; t+lv.Delay <= deadline; t++ {
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
					for c := t; c < t+lv.Delay; c++ {
						profile[c] += lv.Power
					}
					// Share an existing instance of the same module at the
					// same operating point.
					for f, fm := range instModule {
						if fm != mi || instLevel[f] != li || occupied(f, t, t+lv.Delay, k) {
							continue
						}
						fuOf[v] = f
						rec(k + 1)
					}
					// Allocate a fresh instance.
					if fuArea+m.Area < bestArea {
						instModule = append(instModule, mi)
						instLevel = append(instLevel, li)
						fuOf[v] = len(instModule) - 1
						fuArea += m.Area
						rec(k + 1)
						fuArea -= m.Area
						instModule = instModule[:len(instModule)-1]
						instLevel = instLevel[:len(instLevel)-1]
					}
					for c := t; c < t+lv.Delay; c++ {
						profile[c] -= lv.Power
					}
				}
			}
		}
	}
	rec(0)
	if over {
		return nil, fmt.Errorf("verify: brute force: %w (budget %d)", ErrTooLarge, opt.MaxExpansions)
	}
	if best == nil {
		return &BruteResult{Feasible: false, Expansions: exps}, nil
	}
	best.Expansions = exps
	return best, nil
}

// Schedulable exhaustively decides whether the graph admits ANY schedule
// meeting the deadline and per-cycle power cap when every node's delay
// and power are fixed (the fixed-binding feasibility question the
// pasap/palap window pair answers heuristically). It is the ground truth
// for the window metamorphic property on tiny graphs.
func Schedulable(g *cdfg.Graph, delays []int, powers []float64, deadline int, powerMax float64, opt BruteOptions) (bool, error) {
	opt = opt.withDefaults()
	if g.N() > opt.MaxNodes {
		return false, fmt.Errorf("verify: schedulable: %d nodes > limit %d: %w", g.N(), opt.MaxNodes, ErrTooLarge)
	}
	if len(delays) != g.N() || len(powers) != g.N() {
		return false, fmt.Errorf("verify: schedulable: %d delays / %d powers for %d nodes", len(delays), len(powers), g.N())
	}
	if deadline <= 0 {
		return false, fmt.Errorf("verify: schedulable: deadline %d must be positive", deadline)
	}
	if math.IsNaN(powerMax) || math.IsInf(powerMax, 0) {
		return false, fmt.Errorf("verify: schedulable: power cap %g must be finite", powerMax)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return false, err
	}
	n := g.N()
	start := make([]int, n)
	profile := make([]float64, deadline)
	exps := 0
	over := false
	var rec func(k int) bool
	rec = func(k int) bool {
		exps++
		if exps > opt.MaxExpansions {
			over = true
			return false
		}
		if k == n {
			return true
		}
		v := order[k]
		d := delays[v]
		if d < 1 {
			d = 1
		}
		earliest := 0
		for _, p := range g.Preds(v) {
			pd := delays[p]
			if pd < 1 {
				pd = 1
			}
			if e := start[p] + pd; e > earliest {
				earliest = e
			}
		}
		for t := earliest; t+d <= deadline; t++ {
			ok := true
			if powerMax > 0 {
				for c := t; c < t+d; c++ {
					if profile[c]+powers[v] > powerMax+powerEps {
						ok = false
						break
					}
				}
			}
			if !ok {
				continue
			}
			start[v] = t
			for c := t; c < t+d; c++ {
				profile[c] += powers[v]
			}
			if rec(k + 1) {
				return true
			}
			for c := t; c < t+d; c++ {
				profile[c] -= powers[v]
			}
		}
		return false
	}
	feasible := rec(0)
	if over {
		return false, fmt.Errorf("verify: schedulable: %w (budget %d)", ErrTooLarge, opt.MaxExpansions)
	}
	return feasible, nil
}
