//go:build !race

// Work, area and allocation pins for the scale mode of BenchmarkScaling.
// The n=1000 tiers are too slow under the race detector and AllocsPerRun
// counts are not meaningful there, so these run in the race-free lane
// (make test-alloc).

package core

import "testing"

// scalingPins are the CI tiers of BenchmarkScaling with the decomposition
// and scheduler work and the area scale-mode Synthesize reproduces at
// scalingInstance's point, and the lowest allocs/op ever recorded for the
// tier (the test allows 20% over it).
var scalingPins = []struct {
	tier                                  string
	regions, repairs, cutEdges, sdc, runs int64
	area                                  float64
	allocs                                int
}{
	{"layered-n100", 0, 0, 0, 0, 750, 2392.4500000000003, 1032},
	{"layered-n300", 0, 0, 0, 197, 212, 4879.72, 1123},
	{"blocks-n300", 2, 0, 0, 426, 321, 4426.360000000001, 3085},
	{"layered-n1000-connected", 7, 0, 981, 1415, 1636, 18302.22000000001, 9671},
	{"mixed-n1000-connected", 6, 0, 1066, 1389, 1395, 17018.63, 9017},
}

// TestScalingCountersAndAllocs checks every CI tier's scale-mode run
// against its pinned work, area and allocation budget.
func TestScalingCountersAndAllocs(t *testing.T) {
	tiers := map[string]scalingTier{}
	for _, tier := range scalingTiers {
		tiers[tier.name] = tier
	}
	for _, pin := range scalingPins {
		t.Run(pin.tier, func(t *testing.T) {
			g, lib, cons := scalingInstance(t, tiers[pin.tier])
			var d *Design
			allocs := testing.AllocsPerRun(1, func() {
				var err error
				if d, err = Synthesize(g, lib, cons, Config{}); err != nil {
					t.Fatal(err)
				}
			})
			st := d.Stats
			if st.Regions != pin.regions || st.RegionRepairs != pin.repairs || st.CutEdges != pin.cutEdges ||
				st.SDCDerivations != pin.sdc || st.SchedulerRuns != pin.runs {
				t.Errorf("regions/repairs/cut edges/SDC derivations/scheduler runs = %d/%d/%d/%d/%d, pinned %d/%d/%d/%d/%d",
					st.Regions, st.RegionRepairs, st.CutEdges, st.SDCDerivations, st.SchedulerRuns,
					pin.regions, pin.repairs, pin.cutEdges, pin.sdc, pin.runs)
			}
			if d.Area() != pin.area {
				t.Errorf("area = %v, pinned %v", d.Area(), pin.area)
			}
			if max := float64(pin.allocs * 6 / 5); allocs > max {
				t.Errorf("Synthesize allocates %.0f/op, budget %.0f", allocs, max)
			}
			t.Logf("Synthesize: %.0f allocs/op", allocs)
		})
	}
}
