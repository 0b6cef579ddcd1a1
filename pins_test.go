package pchls

import (
	"testing"
	"time"
)

// The deterministic results of BenchmarkSynthesize and
// BenchmarkAnytimePortfolio, pinned exactly: the engine's work and the
// areas it reaches at bindingPoint do not depend on the machine or the
// worker count, so any change to them is a behaviour change.

// synthesizePins are BenchmarkSynthesize's graphs with the scheduler runs,
// incremental runs (always 0: no derivation pins nodes any more),
// window-cache hits and area Synthesize reproduces at bindingPoint, and the lowest allocs/op ever recorded for
// the point (TestSynthesizeAllocs allows 20% over it).
var synthesizePins = []struct {
	name                            string
	fullRuns, pinnedRuns, cacheHits int64
	area                            float64
	allocs                          int
}{
	{"hal", 66, 0, 6, 1078, 320},
	{"cosine", 471, 0, 144, 2784, 586},
	{"elliptic", 186, 0, 65, 1609, 496},
	{"fir16", 423, 0, 31, 2628, 554},
	{"ar", 85, 0, 55, 1218, 391},
	{"diffeq2", 139, 0, 14, 1025, 364},
	{"fft8", 722, 0, 10, 2122, 563},
}

// TestSynthesizePins checks every BenchmarkSynthesize point against its
// pinned engine work and area.
func TestSynthesizePins(t *testing.T) {
	lib := Table1()
	for _, pin := range synthesizePins {
		t.Run(pin.name, func(t *testing.T) {
			g := MustBenchmark(pin.name)
			d, err := Synthesize(g, lib, bindingPoint(t, g, lib), Config{})
			if err != nil {
				t.Fatal(err)
			}
			st := d.Stats
			if st.SchedulerRuns != pin.fullRuns || st.IncrementalRuns != pin.pinnedRuns || st.WindowCacheHits != pin.cacheHits {
				t.Errorf("scheduler runs/pinned runs/cache hits = %d/%d/%d, pinned %d/%d/%d",
					st.SchedulerRuns, st.IncrementalRuns, st.WindowCacheHits, pin.fullRuns, pin.pinnedRuns, pin.cacheHits)
			}
			if d.Area() != pin.area {
				t.Errorf("area = %v, pinned %v", d.Area(), pin.area)
			}
		})
	}
}

// portfolioBenchConfig is the anytime portfolio BenchmarkAnytimePortfolio
// runs: eight passes, two re-exploration rounds, a fixed seed and worker
// count.
var portfolioBenchConfig = PortfolioConfig{K: 8, Budget: 2, Seed: 1, Workers: 4}

// portfolioPin is one BenchmarkAnytimePortfolio graph: the area the
// portfolio converges to and the single greedy pass it starts from, the
// benchmark's wall-time budget and the lowest allocs/op ever recorded
// (TestAnytimePortfolioAllocs allows 20% over it).
type portfolioPin struct {
	name               string
	area, baselineArea float64
	budget             time.Duration
	allocs             int
}

var portfolioPins = []portfolioPin{
	{"hal", 842, 1078, 2 * 15172902, 46118},
	{"diffeq2", 882, 1025, 2 * 20015156, 34104},
	{"fft8", 1716, 2122, 2 * 58873427, 110886},
}

// check fails tb unless res reproduces the pinned areas exactly.
func (pin portfolioPin) check(tb testing.TB, res *PortfolioResult) {
	tb.Helper()
	if got := res.Design.Area(); got != pin.area || res.BaselineArea != pin.baselineArea {
		tb.Errorf("%s: area/baseline area = %v/%v, pinned %v/%v", pin.name, got, res.BaselineArea, pin.area, pin.baselineArea)
	}
}

// TestAnytimePortfolioPins checks every BenchmarkAnytimePortfolio graph
// against its pinned areas.
func TestAnytimePortfolioPins(t *testing.T) {
	lib := Table1()
	for _, pin := range portfolioPins {
		t.Run(pin.name, func(t *testing.T) {
			g := MustBenchmark(pin.name)
			res, err := SynthesizePortfolio(g, lib, bindingPoint(t, g, lib), portfolioBenchConfig)
			if err != nil {
				t.Fatal(err)
			}
			pin.check(t, res)
		})
	}
}
