package cache

import (
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
)

// dvsLibrary is a two-level voltage-scaling library, so the level lines
// of the canonical rendering are part of the pinned bytes.
func dvsLibrary(t *testing.T) *library.Library {
	t.Helper()
	lib, err := library.New([]library.Module{
		{Name: "alu", Ops: []cdfg.Op{cdfg.Add, cdfg.Sub, cdfg.Cmp}, Area: 50, Levels: []library.OperatingPoint{
			{Voltage: 5, Delay: 1, Power: 8},
			{Voltage: 3.3, Delay: 2, Power: 3.5},
		}},
		{Name: "mul", Ops: []cdfg.Op{cdfg.Mul}, Area: 600, Levels: []library.OperatingPoint{
			{Voltage: 5, Delay: 2, Power: 25},
			{Voltage: 3.3, Delay: 4, Power: 11},
		}},
		{Name: "io", Ops: []cdfg.Op{cdfg.Input, cdfg.Output}, Area: 0, Delay: 1, Power: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestKeyBytesPinned pins the content addresses of every endpoint for
// fixed inputs. Peers and the cluster ring route on these keys, so a
// refactor of the canonical rendering must not move a single byte; a
// deliberate schema change bumps keyVersion and re-pins.
func TestKeyBytesPinned(t *testing.T) {
	g, table1, dvs := bench.HAL(), library.Table1(), dvsLibrary(t)
	cons := core.Constraints{Deadline: 17, PowerMax: 12.5}
	deadlines := []int{14, 10, 12}
	powers := []float64{20, 7.5, 11.25}
	for _, tc := range []struct {
		name, got, want string
	}{
		{"synthesize/table1", SynthesizeKey(g, table1, cons, false),
			"7dbab24c6c3cd96a7651aa97b85c0355e6046418810cee64338da08cc817aae5"},
		{"synthesize/dvs-single", SynthesizeKey(g, dvs, cons, true),
			"38692b803987abf84f31d78ecf754f02c774de054ed6d2eab6d2941db920b546"},
		// A later cell of a grid hashes nothing left over from the cells before it.
		{"synthesize/table1-grid-cell", SynthesizeKeys(g, table1, []core.Constraints{{Deadline: 8}, cons}, false)[1],
			"7dbab24c6c3cd96a7651aa97b85c0355e6046418810cee64338da08cc817aae5"},
		{"portfolio/table1", PortfolioKey(g, table1, cons, 8, 2, 42),
			"ad7abf107b6e7c5a9a5bb40fb9dea2758629455c0303f59fd55e7241114a2cc9"},
		{"sweep/dvs", SweepKey(g, dvs, 17, 2.5, 150, 2.5, false),
			"f2e7d490aa91583500589bff0d25e54e1c61107763cc06e2af799c278c1e7429"},
		{"surface/table1", SurfaceKey(g, table1, deadlines, powers, true),
			"ac190edefa7f83e800500a07d32b6dc55a31f6ff4f09be015fc4b6fd3e80a7cb"},
		{"surface/dvs", SurfaceKey(g, dvs, deadlines, powers, false),
			"ce5732240cf61054f232f251dc45cb2e562dd5f9cedad6dd7d5ceb83b4d395d7"},
		{"pareto/dvs", ParetoKey(g, dvs, deadlines, powers, "kibam", 0, 1<<20, true),
			"0475538509c021d818d6304f5d1bd381b4ca41afe40e7b297fe64b6bf27e53a1"},
		{"pareto/table1-peukert", ParetoKey(g, table1, deadlines, powers, "peukert", 1234.5, 1000, false),
			"7c3331bae9eddaee83a304cdb932ee4f0bdc13b7b660f43ab40c106ad322f5de"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s key = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}
