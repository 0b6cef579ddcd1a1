package core

// The stitch pricing differential: the merge passes price every trial
// with area and validate with check instead of assembling a design with
// finish, and their sweeps stop at the position of the last merge. These
// tests compare both with finish at every trial and prove the early stop
// lost no merge.

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sync"
	"testing"

	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/sched"
)

// pricingCounts tallies what checkStitchPricing compared: merge trials
// (plain and shift together), those finish rejected, and stitches whose
// final state was swept again.
type pricingCounts struct {
	trials, rejected, stitches int
}

// checkStitchPricing installs the priced and stitched hooks until the test
// ends. At every merge trial of every synthesis that follows, the area the
// pass priced must equal finish().Area() bit for bit, and check must fail
// exactly when finish does. After every stitch one more full sweep of the
// plain and the shift-merge trials, without the early stop, must merge
// nothing. label names the synthesis in failures; it must be set before
// each synthesis starts.
func checkStitchPricing(t *testing.T, label *string) *pricingCounts {
	var mu sync.Mutex
	counts := &pricingCounts{}
	priced = func(st *state, area float64) {
		d, err := st.finish()
		cerr := st.check()
		mu.Lock()
		defer mu.Unlock()
		counts.trials++
		if err != nil {
			counts.rejected++
		}
		if (err == nil) != (cerr == nil) {
			t.Errorf("%s: check returns %v where finish returns %v", *label, cerr, err)
		}
		if err == nil && math.Float64bits(d.Area()) != math.Float64bits(area) {
			t.Errorf("%s: a trial priced %v (%x), finish reports %v (%x)",
				*label, area, math.Float64bits(area), d.Area(), math.Float64bits(d.Area()))
		}
	}
	stitched = func(st *state) {
		cur := st.area(true)
		for i := 0; i < len(st.fus); i++ {
			for j := i + 1; j < len(st.fus); j++ {
				if st.fus[i].module != st.fus[j].module || st.overlaps(i, j) {
					continue
				}
				if a, ok := st.tryMerge(i, j, cur); ok {
					t.Errorf("%s: the plain merge of instances %d and %d (area %v -> %v) was left behind", *label, i, j, cur, a)
					return
				}
			}
		}
		for i := 0; i < len(st.fus); i++ {
			for j := i + 1; j < len(st.fus); j++ {
				if st.fus[i].module == st.fus[j].module && !st.overlaps(i, j) {
					continue
				}
				if a, ok := st.tryShiftMerge(i, j, cur); ok {
					t.Errorf("%s: the shift merge of instances %d and %d (area %v -> %v) was left behind", *label, i, j, cur, a)
					return
				}
			}
		}
		mu.Lock()
		counts.stitches++
		mu.Unlock()
	}
	t.Cleanup(func() { priced, stitched = nil, nil })
	return counts
}

// presetInstance derives a preset instance at the large workload's
// constraint point (asapPoint).
func presetInstance(t *testing.T, preset gen.Preset, nodes int, connect bool, seed int64) (gen.Instance, Constraints) {
	t.Helper()
	cfg, err := gen.PresetConfig(preset, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Connect = connect
	inst := gen.NewInstance(seed, gen.InstanceConfig{Graph: cfg})
	return inst, asapPoint(t, inst)
}

// asapPoint is the large workload's constraint point: 1.5 × the
// fastest-module ASAP length and 0.7 × its peak power.
func asapPoint(t *testing.T, inst gen.Instance) Constraints {
	t.Helper()
	asap, err := sched.ASAP(inst.Graph, sched.UniformFastest(inst.Library))
	if err != nil {
		t.Fatal(err)
	}
	return Constraints{Deadline: asap.Length() + asap.Length()/2, PowerMax: 0.7 * asap.PeakPower()}
}

// TestStitchPricingMatchesFinish is the trial-by-trial differential of the
// merge passes' pricing and the proof obligation of their early stop. It
// covers the large workload's n=300 generators (the connected ones also
// forced through the min-cut), the two connected n=1000 scaling tiers,
// the seeds of TestPartitionStitchMatchesForced (tight caps included) and
// 200 random instances through forced partition, each under the default
// search and one other variant.
func TestStitchPricingMatchesFinish(t *testing.T) {
	label := ""
	counts := checkStitchPricing(t, &label)
	synth := func(inst gen.Instance, cons Constraints, cfg Config) {
		if _, err := Synthesize(inst.Graph, inst.Library, cons, cfg); err != nil {
			t.Logf("%s: %v", label, err)
		}
	}
	for _, preset := range []gen.Preset{gen.PresetLayered, gen.PresetBlocks, gen.PresetMixed} {
		for _, connect := range []bool{false, true} {
			for _, seed := range []int64{1000, 1001} {
				inst, cons := presetInstance(t, preset, 300, connect, seed)
				label = fmt.Sprintf("%s-n300-connect=%t-seed%d", preset, connect, seed)
				synth(inst, cons, Config{})
				if connect {
					label += " forced"
					synth(inst, cons, Config{partition: partitionForce})
				}
			}
		}
	}
	for _, tier := range scalingTiers {
		if tier.connect {
			// scalingInstance synthesizes the tier's point to verify it.
			label = tier.name
			scalingInstance(t, tier)
		}
	}
	for seed := int64(0); seed < 12; seed++ {
		inst := gen.NewInstance(seed, gen.InstanceConfig{Graph: gen.GraphConfig{Nodes: 60, Blocks: 4}})
		label = fmt.Sprintf("forced seed %d", seed)
		synth(inst, Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}, Config{partition: partitionForce})
	}
	for _, seed := range []int64{82, 127, 190, 301, 361, 395, 420, 426} {
		inst := gen.NewInstance(seed, gen.InstanceConfig{
			Graph:          gen.GraphConfig{Nodes: 20 + int(seed%60), Blocks: 2 + int(seed%3)},
			PowerFactorMin: 1.0, PowerFactorMax: 1.8,
		})
		label = fmt.Sprintf("tight-cap seed %d", seed)
		synth(inst, Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}, Config{partition: partitionForce})
	}
	for seed := int64(0); seed < 200; seed++ {
		inst, cons := stitchInstance(t, seed, uint8(seed), uint8(seed/7))
		// The default search and one of the other variants, in turn.
		cfgs := coldDiffConfigs(seed)
		for _, ci := range []int{0, 1 + int(seed)%(len(cfgs)-1)} {
			cfg := cfgs[ci]
			cfg.partition = partitionForce
			label = fmt.Sprintf("random seed %d config %d", seed, ci)
			synth(inst, cons, cfg)
		}
	}
	t.Logf("%d merge trials compared (%d rejected by finish), %d stitches swept again", counts.trials, counts.rejected, counts.stitches)
	if min := 10000; counts.trials < min {
		t.Fatalf("only %d merge trials compared, want at least %d", counts.trials, min)
	}
	if counts.stitches == 0 {
		t.Fatal("no stitch was swept again")
	}
}

// stitchInstance is a random instance for the stitch differential, 40 to
// 199 nodes in 4 to 15 blocks (each block one region of the stitch), at
// the large workload's constraint point.
func stitchInstance(t *testing.T, seed int64, nodes, blocks uint8) (gen.Instance, Constraints) {
	inst := gen.NewInstance(seed, gen.InstanceConfig{
		Graph: gen.GraphConfig{Nodes: 40 + int(nodes)%160, Blocks: 4 + int(blocks)%12},
	})
	return inst, asapPoint(t, inst)
}

// FuzzStitchPricing explores random instances through forced partition
// under TestStitchPricingMatchesFinish's assertions.
func FuzzStitchPricing(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3))
	f.Add(int64(2), uint8(70), uint8(1))
	f.Add(int64(3), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nodes, blocks uint8) {
		label := fmt.Sprintf("seed %d", seed)
		checkStitchPricing(t, &label)
		inst, cons := stitchInstance(t, seed, nodes, blocks)
		Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionForce})
	})
}

// TestSweepPairsMatchesFullResweep drives sweepPairs with a pseudo-random
// merge rule that is a pure function of the instances and the pair, as the
// merge passes' trials are, against the loop it replaced, which swept every
// pair again after any sweep that merged. Both must merge the same pairs in
// the same order, and sweepPairs must try no more pairs.
func TestSweepPairsMatchesFullResweep(t *testing.T) {
	fullResweep := func(st *state, try func(i, j int) bool) bool {
		merged := false
		for changed := true; changed; {
			changed = false
			for i := 0; i < len(st.fus); i++ {
				for j := i + 1; j < len(st.fus); j++ {
					if try(i, j) {
						changed, merged = true, true
						j--
					}
				}
			}
		}
		return merged
	}
	type outcome struct {
		merges [][2]int
		fus    [][]cdfg.NodeID
		merged bool
		tries  int
	}
	run := func(seed int64, n int, sweep func(*state, func(i, j int) bool) bool) outcome {
		st := &state{}
		for k := range n {
			st.fus = append(st.fus, instance{ops: []cdfg.NodeID{cdfg.NodeID(k)}})
		}
		var o outcome
		o.merged = sweep(st, func(i, j int) bool {
			o.tries++
			h := fnv.New64a()
			fmt.Fprint(h, seed, i, j)
			for _, f := range st.fus {
				fmt.Fprint(h, f.ops, ";")
			}
			if h.Sum64()%4 != 0 {
				return false
			}
			st.fus[i].ops = append(st.fus[i].ops, st.fus[j].ops...)
			st.fus = slices.Delete(st.fus, j, j+1)
			o.merges = append(o.merges, [2]int{i, j})
			return true
		})
		for _, f := range st.fus {
			o.fus = append(o.fus, f.ops)
		}
		return o
	}
	saved := 0
	for seed := int64(0); seed < 400; seed++ {
		n := 2 + int(seed%17)
		got := run(seed, n, (*state).sweepPairs)
		want := run(seed, n, fullResweep)
		if got.merged != want.merged || !slices.Equal(got.merges, want.merges) || !slices.EqualFunc(got.fus, want.fus, slices.Equal) {
			t.Fatalf("seed %d, %d instances: sweepPairs merged %v into %v, the full re-sweep %v into %v",
				seed, n, got.merges, got.fus, want.merges, want.fus)
		}
		if got.tries > want.tries {
			t.Fatalf("seed %d: sweepPairs tried %d pairs, the full re-sweep %d", seed, got.tries, want.tries)
		}
		saved += want.tries - got.tries
	}
	if saved == 0 {
		t.Fatal("the early stop never saved a try")
	}
}

// TestCheckRejectsWhatFinishRejects breaks a synthesized design's state one
// invariant at a time — precedence, the deadline, an instance's timeline,
// a module that cannot run its operation, fuOf — and requires check and
// finish to reject each, and to accept the intact state.
func TestCheckRejectsWhatFinishRejects(t *testing.T) {
	inst, cons := presetInstance(t, gen.PresetLayered, 120, true, 0)
	d, err := Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionOff})
	if err != nil {
		t.Fatal(err)
	}
	load := func() *state {
		st, err := newState(d.Graph, d.Library, d.Cons, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for fi, fu := range d.FUs {
			st.addInstance(st.nameToMi[fu.Module.Name], slices.Clone(fu.Ops))
			for _, v := range fu.Ops {
				st.fuOf[v] = fi
			}
		}
		for v := range st.start {
			st.markCommitted(cdfg.NodeID(v), true)
			st.start[v] = d.Schedule.Start[v]
			st.setModule(cdfg.NodeID(v), st.nameToMi[d.Schedule.Module[v]])
		}
		st.rebuildCommitted()
		return st
	}
	g := d.Graph
	// pair returns two instances satisfying ok, or fails the test.
	pair := func(st *state, ok func(i, j int) bool) (int, int) {
		for i := range st.fus {
			for j := range st.fus {
				if i != j && ok(i, j) {
					return i, j
				}
			}
		}
		t.Fatal("no instance pair to break")
		return 0, 0
	}
	breaks := []struct {
		name  string
		apply func(st *state)
	}{
		{"intact", func(*state) {}},
		{"precedence", func(st *state) {
			for v := range g.N() {
				if preds := g.Preds(cdfg.NodeID(v)); len(preds) > 0 {
					st.start[v] = st.start[preds[0]]
					break
				}
			}
			st.rebuildCommitted()
		}},
		{"deadline", func(st *state) {
			for v := range g.N() {
				if len(g.Succs(cdfg.NodeID(v))) == 0 {
					st.start[v] = cons.Deadline
					break
				}
			}
			st.rebuildCommitted()
		}},
		{"timeline", func(st *state) {
			i, j := pair(st, func(i, j int) bool {
				return i < j && st.fus[i].module == st.fus[j].module && st.overlaps(i, j)
			})
			st.mergeFUs(i, j, st.mergeLines(nil, st.fus[i].line, st.fus[j].line))
		}},
		{"module", func(st *state) {
			i, j := pair(st, func(i, j int) bool {
				return !st.lib.Module(st.fus[j].module).Implements(g.Node(st.fus[i].ops[0]).Op)
			})
			x := st.fus[i].ops[0]
			st.fuOf[x] = j
		}},
		{"fuOf", func(st *state) {
			i, j := pair(st, func(i, j int) bool { return st.fus[i].module == st.fus[j].module })
			st.fuOf[st.fus[i].ops[0]] = j
		}},
	}
	for _, b := range breaks {
		st := load()
		b.apply(st)
		_, ferr := st.finish()
		cerr := st.check()
		if (ferr == nil) != (b.name == "intact") || (cerr == nil) != (ferr == nil) {
			t.Errorf("%s: check returns %v, finish %v", b.name, cerr, ferr)
		}
	}
}
