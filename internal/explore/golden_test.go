package explore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// The committed experiment artifacts under results/ are golden files:
// regenerating them with the settings `make figures` uses must reproduce
// them byte for byte, so any change to the grid evaluation, subsumption
// or rendering that moves a published number fails here.

func readResult(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestFigure2CurvesMatchCommittedCSVs(t *testing.T) {
	lib := library.Table1()
	cfg := SweepConfig{PowerMin: 2.5, PowerMax: 150, Step: 2.5}
	for _, spec := range Figure2Specs() {
		g, err := bench.ByName(spec.Benchmark)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Sweep(g, lib, spec.Deadline, cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s_T%d.csv", spec.Benchmark, spec.Deadline)
		if got, want := c.CSV(), readResult(t, name); got != want {
			t.Errorf("%s drifted from the committed artifact:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestSurfaceTableMatchesCommittedArtifact rebuilds the grid of
// `pchls-explore -surface -g hal` and compares the area matrix with the
// table section of results/surface_hal.txt.
func TestSurfaceTableMatchesCommittedArtifact(t *testing.T) {
	g, lib := bench.HAL(), library.Table1()
	asap, err := sched.ASAP(g, sched.UniformFastest(lib))
	if err != nil {
		t.Fatal(err)
	}
	cp := asap.Length()
	cfg := SurfaceConfig{SinglePass: true}
	for T := cp; T <= cp*2+4; T += (cp + 5) / 6 {
		cfg.Deadlines = append(cfg.Deadlines, T)
	}
	peak := asap.PeakPower()
	for P := peak / 5; P <= peak*1.2; P += peak / 8 {
		cfg.Powers = append(cfg.Powers, float64(int(P*10))/10)
	}
	s, err := ExploreSurface(g, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	txt := readResult(t, "surface_hal.txt")
	start := strings.Index(txt, "\n\n")
	end := strings.Index(txt, "\nPareto front")
	if start < 0 || end < start {
		t.Fatalf("results/surface_hal.txt has no table section:\n%s", txt)
	}
	if got, want := s.Table(), txt[start+2:end]; got != want {
		t.Errorf("surface table drifted from results/surface_hal.txt:\n got:\n%s\nwant:\n%s", got, want)
	}
}
