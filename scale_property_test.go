package pchls

import (
	"bytes"
	"testing"

	"pchls/internal/gen"
)

// TestPartitionStitchDeterministicAcrossWorkers is the top-level
// decomposition property (DESIGN.md §13): above the auto thresholds
// (>=128 computation nodes, >=2 weakly-connected components) the default
// Config must take the partition path, and the stitched design must be
// byte-identical — serialized JSON — whether the regions are synthesized
// on 1, 2 or 8 workers. The whole test runs
// under -race in the tier-1 suite, so it doubles as the data-race gate
// for the region runner pool. Every stitched result must also pass the
// independent validator.
func TestPartitionStitchDeterministicAcrossWorkers(t *testing.T) {
	cfg, err := gen.PresetConfig(gen.PresetBlocks, 160)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		inst := gen.NewInstance(seed, gen.InstanceConfig{Graph: cfg})
		asap, err := ASAP(inst.Graph, UniformFastest(inst.Library))
		if err != nil {
			t.Fatal(err)
		}
		cons := Constraints{
			Deadline: asap.Length() + asap.Length()/2,
			PowerMax: asap.PeakPower() * 0.7,
		}

		ref, err := Synthesize(inst.Graph, inst.Library, cons, Config{})
		if err != nil {
			// The derived point is feasible for every published seed; a
			// future generator change may shift that, so loosen rather
			// than fail spuriously.
			cons.PowerMax = 0
			if ref, err = Synthesize(inst.Graph, inst.Library, cons, Config{}); err != nil {
				t.Fatalf("seed %d: unconstrained synthesis failed: %v", seed, err)
			}
		}
		if ref.Stats.Regions == 0 && ref.Stats.PartitionFallbacks == 0 {
			t.Fatalf("seed %d: auto config never took the partition path on a %d-node blocks graph",
				seed, inst.Graph.N())
		}
		if err := Verify(ref); err != nil {
			t.Fatalf("seed %d: auto design fails validation: %v", seed, err)
		}
		refJSON, err := ref.JSON()
		if err != nil {
			t.Fatal(err)
		}

		for _, workers := range []int{1, 2, 8} {
			d, err := Synthesize(inst.Graph, inst.Library, cons, Config{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if err := Verify(d); err != nil {
				t.Fatalf("seed %d workers %d: stitched design fails validation: %v", seed, workers, err)
			}
			j, err := d.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j, refJSON) {
				t.Fatalf("seed %d: partitioned synthesis on %d workers diverges from the default run", seed, workers)
			}
		}
	}
}
