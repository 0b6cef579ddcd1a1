package core

// Tests for the min-cut decomposition of connected graphs: determinism
// across worker counts, independent verification of every stitched
// design, the boundary-transfer and QoR-recovery stats, the repair →
// fallback chain on infeasible parts, and the area gap against
// monolithic synthesis.

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/sched"
	"pchls/internal/verify"
)

// connectedInstance derives a single-component preset instance plus the
// scaling lane's constraint point: 50% deadline slack over the
// fastest-module ASAP length, power capped at the given fraction of the
// unconstrained ASAP peak (0 = latency-only).
func connectedInstance(t *testing.T, preset gen.Preset, nodes int, seed int64, powerFrac float64) (gen.Instance, Constraints) {
	t.Helper()
	cfg, err := gen.PresetConfig(preset, nodes)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Connect = true
	inst := gen.NewInstance(seed, gen.InstanceConfig{Graph: cfg})
	asap, err := sched.ASAP(inst.Graph, sched.UniformFastest(inst.Library))
	if err != nil {
		t.Fatal(err)
	}
	return inst, Constraints{
		Deadline: asap.Length() + asap.Length()/2,
		PowerMax: asap.PeakPower() * powerFrac,
	}
}

// TestMinCutDeterministicAcrossWorkers: the wave-parallel min-cut driver
// must produce byte-identical designs for every worker count — the cut,
// the wave grouping, the acceptance walk, and the stitch all follow part
// order, never scheduling order.
func TestMinCutDeterministicAcrossWorkers(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		inst, cons := connectedInstance(t, gen.PresetLayered, 300, seed, 0.7)
		var ref *Design
		var refErr error
		for _, workers := range []int{1, 2, 8} {
			d, err := Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionForce, Workers: workers})
			label := fmt.Sprintf("seed %d workers=%d", seed, workers)
			if workers == 1 {
				ref, refErr = d, err
				if err == nil {
					if verr := verify.Check(VerifyInput(d)); verr != nil {
						t.Fatalf("%s: min-cut design fails verification: %v", label, verr)
					}
					if d.Stats.CutEdges == 0 && d.Stats.PartitionFallbacks == 0 {
						t.Fatalf("%s: forced min-cut reports neither cut edges nor a fallback:\n%v", label, d.Stats)
					}
				}
				continue
			}
			requireSameDesign(t, label, d, ref, err, refErr)
		}
	}
}

// TestMinCutVerifiesUnderPowerSweep pushes tight-power connected
// instances through the forced min-cut path: every produced design must
// pass the engine-independent verifier, monolithic feasibility must imply
// min-cut feasibility (the fallback chain guarantees it), and across the
// sweep both dispositions of an infeasible part subproblem must appear —
// stitched designs with cut edges, and abandoned decompositions counted
// in PartitionFallbacks.
func TestMinCutVerifiesUnderPowerSweep(t *testing.T) {
	var stitched, fallbacks, produced int
	for _, frac := range []float64{0.3, 0.4, 0.5} {
		for seed := int64(0); seed < 8; seed++ {
			cfg := gen.GraphConfig{
				Nodes: 60 + int(seed%40), MaxWidth: 5, EdgeDensity: 0.6,
				MulFraction: 0.3, CmpFraction: 0.1, Connect: true,
			}
			inst := gen.NewInstance(seed, gen.InstanceConfig{Graph: cfg})
			asap, err := sched.ASAP(inst.Graph, sched.UniformFastest(inst.Library))
			if err != nil {
				t.Fatal(err)
			}
			cons := Constraints{Deadline: asap.Length() + asap.Length()/2, PowerMax: asap.PeakPower() * frac}
			label := fmt.Sprintf("frac=%.2f seed=%d", frac, seed)
			d, err := Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionForce})
			if err != nil {
				if m, merr := Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionOff}); merr == nil {
					t.Fatalf("%s: monolithic synthesis succeeds (area %.2f) but the min-cut path errors: %v", label, m.Area(), err)
				}
				continue
			}
			produced++
			if verr := verify.Check(VerifyInput(d)); verr != nil {
				t.Fatalf("%s: min-cut design fails verification: %v", label, verr)
			}
			if d.Stats.CutEdges > 0 {
				stitched++
				if d.Stats.BoundaryTransfers == 0 {
					t.Fatalf("%s: stitched design reports cut edges but no boundary transfers:\n%v", label, d.Stats)
				}
			}
			if d.Stats.PartitionFallbacks > 0 {
				fallbacks++
			}
		}
	}
	if produced < 10 {
		t.Fatalf("only %d designs produced; sweep too weak to mean anything", produced)
	}
	if stitched == 0 {
		t.Fatal("no design in the sweep was stitched from a min cut")
	}
	if fallbacks == 0 {
		t.Fatal("no instance in the sweep exercised the monolithic fallback of an infeasible part")
	}
}

// TestMinCutRepair pins a thousand-node instance whose power coupling
// exercises the cut's QoR-recovery path: the acceptance walk
// re-synthesizes a part whose committed profile jointly breaks the cap
// (RegionRepairs) against the power of the parts accepted before it, and
// the stitch shares instances across regions. The instance is seeded, so
// the trigger is deterministic; the stitched result must still verify.
// A coldWindows run of the same instance must produce the same design:
// parts inherit coldWindows, so every part state audits its maintained
// profile, which starts at a non-zero ambient power, against a rebuild.
func TestMinCutRepair(t *testing.T) {
	if testing.Short() {
		t.Skip("thousand-node synthesis; skipped with -short")
	}
	inst, cons := connectedInstance(t, gen.PresetLayered, 1000, 2001, 0.45)
	d, err := Synthesize(inst.Graph, inst.Library, cons, Config{Workers: 8})
	if err != nil {
		t.Fatalf("synthesis failed: %v", err)
	}
	if verr := verify.Check(VerifyInput(d)); verr != nil {
		t.Fatalf("design fails verification: %v", verr)
	}
	st := d.Stats
	if st.CutEdges == 0 || st.BoundaryTransfers == 0 {
		t.Fatalf("pinned instance no longer takes the min-cut path:\n%v", st)
	}
	if st.RegionRepairs == 0 {
		t.Fatalf("pinned instance no longer triggers the acceptance-walk repair:\n%v", st)
	}
	if st.SharedCrossRegion == 0 {
		t.Fatalf("pinned instance no longer triggers cross-region sharing:\n%v", st)
	}
	cold, err := Synthesize(inst.Graph, inst.Library, cons, Config{Workers: 8, coldWindows: true})
	if err != nil {
		t.Fatalf("coldWindows synthesis failed: %v", err)
	}
	want, err := d.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("coldWindows design differs from the default run's")
	}
}

// TestMinCutAreaGapUnconstrained bounds the QoR cost of cutting a
// connected graph: without a power cap the stitched design's area must
// stay within 15% of monolithic synthesis in aggregate over the suite —
// the boundary dues (area descent cannot starve downstream slack) and the
// cross-region sharing passes are what hold the gap down from the ~30%
// a naive cut-and-stitch pays.
func TestMinCutAreaGapUnconstrained(t *testing.T) {
	var part, mono float64
	for seed := int64(0); seed < 6; seed++ {
		inst, cons := connectedInstance(t, gen.PresetLayered, 300, seed, 0)
		label := fmt.Sprintf("seed %d", seed)
		p, perr := Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionForce})
		m, merr := Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionOff})
		if merr != nil {
			t.Fatalf("%s: monolithic synthesis failed: %v", label, merr)
		}
		if perr != nil {
			t.Fatalf("%s: min-cut synthesis failed: %v", label, perr)
		}
		if verr := verify.Check(VerifyInput(p)); verr != nil {
			t.Fatalf("%s: min-cut design fails verification: %v", label, verr)
		}
		if p.Stats.PartitionFallbacks > 0 {
			t.Fatalf("%s: fell back to monolithic; the gap bound would be vacuous", label)
		}
		t.Logf("%s: area min-cut %.2f vs monolithic %.2f (%.1f%%)", label, p.Area(), m.Area(), 100*(p.Area()/m.Area()-1))
		part += p.Area()
		mono += m.Area()
	}
	if gap := part / mono; gap > 1.15 {
		t.Fatalf("aggregate min-cut area gap %.4f exceeds 1.15", gap)
	}
}

// TestShiftMergeRollbackExact pins the shift merge's rollback: a
// tryShiftMerge that keeps no merge must leave the state exactly as it
// found it — starts, modules, delays, powers, bindings, instances and
// every profile cycle's bits. Each forced-partition connected instance's
// design, and its monolithic design (which never met a shift merge), is
// loaded into a fresh state the way the stitch loads its regions, and
// driven through the pass's own pair loop with every rejected call
// checked.
func TestShiftMergeRollbackExact(t *testing.T) {
	type snapshot struct {
		start, moduleOf, delays, fuOf []int
		powers                        []float64
		fus                           []instance
		profile                       []uint64
	}
	take := func(st *state) snapshot {
		s := snapshot{
			start:    slices.Clone(st.start),
			moduleOf: slices.Clone(st.moduleOf),
			delays:   slices.Clone(st.delays),
			fuOf:     slices.Clone(st.fuOf),
			powers:   slices.Clone(st.powers),
		}
		for _, f := range st.fus {
			s.fus = append(s.fus, instance{module: f.module, ops: slices.Clone(f.ops), producers: slices.Clone(f.producers)})
		}
		for _, p := range st.profile {
			s.profile = append(s.profile, math.Float64bits(p))
		}
		return s
	}
	load := func(d *Design) *state {
		st, err := newState(d.Graph, d.Library, d.Cons, Config{partition: partitionOff})
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
			st.committed[v] = true
			st.start[v] = d.Schedule.Start[v]
			st.setModule(cdfg.NodeID(v), st.nameToMi[d.Schedule.Module[v]])
		}
		st.rebuildCommitted()
		return st
	}
	var rejected, accepted int
	for seed := int64(0); seed < 4; seed++ {
		inst, cons := connectedInstance(t, gen.PresetLayered, 120, seed, 0.4)
		for _, part := range []partitionPolicy{partitionForce, partitionOff} {
			d, err := Synthesize(inst.Graph, inst.Library, cons, Config{partition: part})
			if err != nil {
				continue
			}
			st := load(d)
			d0, err := st.finish()
			if err != nil {
				t.Fatalf("seed %d: loaded design fails finish: %v", seed, err)
			}
			cur := d0.Area()
			for changed := true; changed; {
				changed = false
				for i := 0; i < len(st.fus); i++ {
					for j := i + 1; j < len(st.fus); j++ {
						if st.fus[i].module == st.fus[j].module && !st.overlaps(i, j) {
							continue
						}
						before := take(st)
						a, ok := st.tryShiftMerge(i, j, cur)
						if ok {
							cur, changed = a, true
							accepted++
							j--
							continue
						}
						rejected++
						if after := take(st); !reflect.DeepEqual(before, after) {
							t.Fatalf("seed %d: rejected tryShiftMerge(%d, %d) changed the state", seed, i, j)
						}
					}
				}
			}
		}
	}
	t.Logf("checked %d rejected tryShiftMerge calls (%d accepted)", rejected, accepted)
	if rejected == 0 {
		t.Fatal("no rejected tryShiftMerge call was checked")
	}
}
