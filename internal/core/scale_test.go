package core

// Tests for the thousand-node scaling path: SDC window derivation, the
// incremental compatibility prefilter, and hierarchical decomposition.
// The common theme is equivalence — the fast paths must either match the
// exhaustive paths byte for byte (where the theory says they coincide)
// or produce independently verified designs (where they legitimately
// diverge).

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"pchls/internal/gen"
	"pchls/internal/verify"
)

// scaleInstance yields a moderate random instance (8 to 35 nodes) for
// the equivalence sweeps.
func scaleInstance(seed int64) gen.Instance {
	return gen.NewInstance(seed, gen.InstanceConfig{
		Graph: gen.GraphConfig{Nodes: 8 + int(seed%28)},
	})
}

// TestSDCMatchesExhaustiveUnconstrained pins the regime where the SDC
// windows are provably exact: with PowerMax <= 0 the pasap/palap pair
// degenerates to precedence ASAP/ALAP, which is the very system of
// difference constraints the SDC sweep solves, so forcing either window
// policy must give byte-identical designs.
func TestSDCMatchesExhaustiveUnconstrained(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		inst := scaleInstance(seed)
		cons := Constraints{Deadline: inst.Deadline, PowerMax: 0}
		label := fmt.Sprintf("seed %d n=%d T=%d", seed, inst.Graph.N(), cons.Deadline)
		sdc, sdcErr := Synthesize(inst.Graph, inst.Library, cons, Config{windows: windowsSDC, partition: partitionOff})
		ex, exErr := Synthesize(inst.Graph, inst.Library, cons, Config{windows: windowsExhaustive, partition: partitionOff})
		requireSameDesign(t, label, sdc, ex, sdcErr, exErr)
		if sdcErr == nil && sdc.Stats.SDCDerivations == 0 {
			t.Fatalf("%s: SDC policy ran without any SDC derivation", label)
		}
	}
}

// TestSDCPrefilterOutputNeutral checks the compatibility prefilter
// theorem on power-constrained instances: CanShare-false implies
// freeSlot-false, so running the SDC path with the prefilter disabled
// must not change a single byte of the result.
func TestSDCPrefilterOutputNeutral(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		inst := scaleInstance(seed)
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		label := fmt.Sprintf("seed %d n=%d T=%d P<=%g", seed, inst.Graph.N(), cons.Deadline, cons.PowerMax)
		with, withErr := Synthesize(inst.Graph, inst.Library, cons, Config{windows: windowsSDC, partition: partitionOff})
		without, withoutErr := Synthesize(inst.Graph, inst.Library, cons, Config{windows: windowsSDC, partition: partitionOff, noCompat: true})
		requireSameDesign(t, label, with, without, withErr, withoutErr)
	}
}

// TestSDCSynthesisVerifies pushes power-constrained instances through
// the forced-SDC path and re-checks every produced design with the
// engine-independent verifier: the SDC windows are supersets of the
// power-feasible ones, so this is the test that the downstream probes
// (freeSlot, the post-commit pasap probe, final validation) really do
// re-impose the power cap.
func TestSDCSynthesisVerifies(t *testing.T) {
	produced := 0
	for seed := int64(0); seed < 200; seed++ {
		inst := scaleInstance(seed)
		if inst.PowerMax <= 0 {
			continue
		}
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		d, err := Synthesize(inst.Graph, inst.Library, cons, Config{windows: windowsSDC, partition: partitionOff})
		if err != nil {
			continue
		}
		produced++
		if err := verify.Check(VerifyInput(d)); err != nil {
			t.Fatalf("seed %d: SDC design fails verification: %v", seed, err)
		}
	}
	if produced < 50 {
		t.Fatalf("only %d/200 instances produced designs; sweep too weak to mean anything", produced)
	}
}

// compatDifferentialDesigns sizes the randomized incremental-V1
// differential: 1000 designs by default (the acceptance floor),
// overridable through PCHLS_COMPAT_DESIGNS for soak runs.
func compatDifferentialDesigns(t *testing.T) int {
	if s := os.Getenv("PCHLS_COMPAT_DESIGNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("PCHLS_COMPAT_DESIGNS=%q: want a positive integer", s)
		}
		return n
	}
	return 1000
}

// TestCompatIncrementalDifferential synthesizes >= 1k seeded random
// designs with the audit hook enabled: after every per-iteration compat
// sync, the incrementally patched edge set is compared bit for bit
// against a from-scratch recomputation, and any mismatch panics inside
// the engine. Passing means the dirty-set maintenance rule is exact
// across every commit/uncommit/repair pattern the sweep produced.
func TestCompatIncrementalDifferential(t *testing.T) {
	n := compatDifferentialDesigns(t)
	for seed := int64(0); seed < int64(n); seed++ {
		inst := gen.NewInstance(seed, gen.InstanceConfig{
			Graph: gen.GraphConfig{Nodes: 6 + int(seed%10)},
		})
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		cfg := Config{windows: windowsSDC, partition: partitionOff, auditCompat: true}
		if _, err := Synthesize(inst.Graph, inst.Library, cons, cfg); err != nil {
			continue // infeasible instances still audited every iteration they ran
		}
	}
}

// TestPartitionStitchMatchesForced checks the decomposition path at the
// core level: a multi-block graph synthesized with partitionForce must
// produce the same bytes for every worker count (region order is fixed
// by the component order, not by scheduling), must verify independently,
// and must report the regions in its stats. A second pass under tight
// power caps pins the power-coupled repair of the component case: the
// components synthesize in one wave with no cut edges, and the acceptance
// walk must re-synthesize the parts that jointly break the cap.
func TestPartitionStitchMatchesForced(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		inst := gen.NewInstance(seed, gen.InstanceConfig{
			Graph: gen.GraphConfig{Nodes: 60, Blocks: 4},
		})
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		var ref *Design
		var refErr error
		for _, workers := range []int{1, 2, 8} {
			cfg := Config{partition: partitionForce, Workers: workers}
			d, err := Synthesize(inst.Graph, inst.Library, cons, cfg)
			label := fmt.Sprintf("seed %d workers=%d", seed, workers)
			if workers == 1 {
				ref, refErr = d, err
				if err == nil {
					if verr := verify.Check(VerifyInput(d)); verr != nil {
						t.Fatalf("%s: stitched design fails verification: %v", label, verr)
					}
					if d.Stats.Regions == 0 && d.Stats.PartitionFallbacks == 0 {
						t.Fatalf("%s: forced partition reports neither regions nor a fallback:\n%v", label, d.Stats)
					}
				}
				continue
			}
			requireSameDesign(t, label, d, ref, err, refErr)
		}
	}
	// Tight caps: every seed below has components that fit the cap alone
	// but break it jointly, so the acceptance walk must repair parts.
	for _, seed := range []int64{82, 127, 190, 301, 361, 395, 420, 426} {
		inst := gen.NewInstance(seed, gen.InstanceConfig{
			Graph:          gen.GraphConfig{Nodes: 20 + int(seed%60), Blocks: 2 + int(seed%3)},
			PowerFactorMin: 1.0, PowerFactorMax: 1.8,
		})
		cons := Constraints{Deadline: inst.Deadline, PowerMax: inst.PowerMax}
		var ref *Design
		for _, workers := range []int{1, 2, 8} {
			label := fmt.Sprintf("tight-cap seed %d workers=%d", seed, workers)
			d, err := Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionForce, Workers: workers})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if workers > 1 {
				requireSameDesign(t, label, d, ref, nil, nil)
				continue
			}
			ref = d
			if verr := verify.Check(VerifyInput(d)); verr != nil {
				t.Fatalf("%s: stitched design fails verification: %v", label, verr)
			}
			st := d.Stats
			if st.RegionRepairs == 0 || st.CutEdges != 0 || st.Regions != int64(len(inst.Graph.Components())) {
				t.Fatalf("%s: want repairs > 0, no cut edges and one region per component (%d):\n%v",
					label, len(inst.Graph.Components()), st)
			}
		}
	}
}

// TestPartitionMatchesMonolithicUnconstrained: with no power cap, regions
// do not interact at all (no shared profile), so decomposed synthesis of
// a disjoint union must succeed exactly when monolithic synthesis does,
// and must verify independently. Area may be worse than monolithic —
// that is the documented cost of the decomposition speedup — but the
// stitch's sharing passes (plain merge, then shift/rebind/ripple
// cross-region merges) must hold the aggregate gap to 15% over the
// suite, and must actually fire somewhere in it.
func TestPartitionMatchesMonolithicUnconstrained(t *testing.T) {
	var partArea, monoArea float64
	var shares int64
	for seed := int64(0); seed < 10; seed++ {
		inst := gen.NewInstance(seed, gen.InstanceConfig{
			Graph: gen.GraphConfig{Nodes: 48, Blocks: 3},
		})
		cons := Constraints{Deadline: inst.Deadline, PowerMax: 0}
		label := fmt.Sprintf("seed %d", seed)
		part, partErr := Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionForce})
		mono, monoErr := Synthesize(inst.Graph, inst.Library, cons, Config{partition: partitionOff})
		if (partErr != nil) != (monoErr != nil) {
			t.Fatalf("%s: error disposition diverges: partitioned %v, monolithic %v", label, partErr, monoErr)
		}
		if partErr != nil {
			continue
		}
		if verr := verify.Check(VerifyInput(part)); verr != nil {
			t.Fatalf("%s: partitioned design fails verification: %v", label, verr)
		}
		t.Logf("%s: area partitioned %.2f vs monolithic %.2f (shares %d)", label, part.Area(), mono.Area(), part.Stats.SharedCrossRegion)
		partArea += part.Area()
		monoArea += mono.Area()
		shares += part.Stats.SharedCrossRegion
	}
	if monoArea == 0 {
		t.Fatal("no instance in the suite produced designs")
	}
	if gap := partArea / monoArea; gap > 1.15 {
		t.Fatalf("aggregate partitioned area gap %.4f exceeds 1.15", gap)
	}
	if shares == 0 {
		t.Fatal("cross-region sharing never fired across the suite")
	}
}
