package pchls

import (
	"strings"
	"testing"
)

func halInputs() map[string]int64 {
	return map[string]int64{"x": 3, "y": 4, "u": 5, "dx": 2, "a": 100}
}

func TestFacadeSimulateAndVerify(t *testing.T) {
	d, err := Synthesize(MustBenchmark("hal"), Table1(), Constraints{Deadline: 17, PowerMax: 8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := SimulateDesign(d, halInputs())
	if err != nil {
		t.Fatal(err)
	}
	// x1 = x + dx = 5; y1 = y + u*dx = 14; u1 = u - x*(u*dx) - y*dx = -33
	// (constant operands evaluate as identities); c = (x1 > a) = 0.
	want := map[string]int64{"out_x1": 5, "out_y1": 14, "out_u1": -33, "out_c": 0}
	for name, v := range want {
		if out[name] != v {
			t.Errorf("%s = %d, want %d", name, out[name], v)
		}
	}
	if err := VerifyDesign(d, halInputs()); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDumpVCD(t *testing.T) {
	d, err := Synthesize(MustBenchmark("hal"), Table1(), Constraints{Deadline: 17, PowerMax: 8}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := DumpVCD(d, halInputs(), 16, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "$enddefinitions $end") {
		t.Fatal("VCD header missing")
	}
}

func TestFacadeCliquePartitionMode(t *testing.T) {
	d, err := SynthesizeCliquePartition(MustBenchmark("hal"), Table1(), Constraints{Deadline: 17, PowerMax: 10}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Schedule.Validate(10, 17); err != nil {
		t.Fatal(err)
	}
	if err := VerifyDesign(d, halInputs()); err != nil {
		t.Fatalf("static clique-mode design functionally wrong: %v", err)
	}
}

func TestFacadeTimeSweep(t *testing.T) {
	c, err := TimeSweep(MustBenchmark("hal"), Table1(), 0, TimeSweepConfig{
		TMin: 8, TMax: 16, Step: 2, SinglePass: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != 5 {
		t.Fatalf("%d points", len(c.Points))
	}
	if _, ok := c.MinFeasibleDeadline(); !ok {
		t.Fatal("no feasible deadline")
	}
	if !strings.Contains(c.CSV(), "deadline") {
		t.Fatal("csv header missing")
	}
}

func TestFacadeStatsSurfaced(t *testing.T) {
	d, err := Synthesize(MustBenchmark("hal"), Table1(), Constraints{Deadline: 17, PowerMax: 20}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Stats.SchedulerRuns == 0 {
		t.Fatal("Design.Stats reports zero scheduler runs")
	}
	big, err := Synthesize(MustBenchmark("ar"), Table1(), Constraints{Deadline: 30, PowerMax: 13}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if big.Stats.WindowCacheHits == 0 {
		t.Fatal("Design.Stats reports zero window cache hits")
	}
	var agg Stats
	agg = agg.Add(d.Stats).Add(big.Stats)
	if agg.SchedulerRuns != d.Stats.SchedulerRuns+big.Stats.SchedulerRuns ||
		agg.WindowCacheHits != d.Stats.WindowCacheHits+big.Stats.WindowCacheHits {
		t.Fatalf("Stats.Add mismatch: %+v", agg)
	}
	c, err := Sweep(MustBenchmark("hal"), Table1(), 17, SweepConfig{PowerMin: 10, PowerMax: 20, Step: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalStats().SchedulerRuns == 0 {
		t.Fatal("Curve.TotalStats reports zero scheduler runs")
	}
}
