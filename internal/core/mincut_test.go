package core

// Tests for the min-cut decomposition of connected graphs: determinism
// across worker counts, independent verification of every stitched
// design, the boundary-transfer and QoR-recovery stats, the repair →
// fallback chain on infeasible parts, and the area gap against
// monolithic synthesis.

import (
	"fmt"
	"testing"

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

// TestMinCutRepairAndTightening pins a thousand-node instance whose
// power coupling exercises both QoR-recovery mechanisms: the acceptance
// walk re-synthesizes a part whose committed profile jointly breaks the
// cap (RegionRepairs), and the repair run's ambient profile shrinks SDC
// candidate windows (BoundTightenings). The instance is seeded, so the
// trigger is deterministic; the stitched result must still verify.
func TestMinCutRepairAndTightening(t *testing.T) {
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
	if st.BoundTightenings == 0 {
		t.Fatalf("pinned instance no longer triggers power-aware bound tightening:\n%v", st)
	}
	if st.SharedCrossRegion == 0 {
		t.Fatalf("pinned instance no longer triggers cross-region sharing:\n%v", st)
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
