//go:build !race

// Allocation-regression tests for the synthesize hot path. AllocsPerRun
// counts are not meaningful under the race detector, so these run in the
// race-free CI lane only.

package core

import (
	"testing"

	"pchls/internal/bench"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// TestBestDecisionSteadyStateAllocs pins the allocation count of one warm
// bestDecision iteration on the largest and the smallest paper benchmark:
// the flat window table, the scheduler arena and the lookup tables must
// hold — the only allocations left are the base palap run (schedule
// shells and start arrays; the pasap side is the post-commit probe) plus
// cache entries for candidates the last commit invalidated.
func TestBestDecisionSteadyStateAllocs(t *testing.T) {
	lib := library.Table1()
	for _, name := range []string{"elliptic", "hal"} {
		t.Run(name, func(t *testing.T) {
			g, err := bench.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			asap, err := sched.ASAP(g, sched.UniformFastest(lib))
			if err != nil {
				t.Fatal(err)
			}
			cons := Constraints{Deadline: asap.Length() + 3, PowerMax: asap.PeakPower() * 0.8}
			st, err := newState(g, lib, cons, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.refineInitialModules(); err != nil {
				t.Fatal(err)
			}
			// Advance into the warm regime: a few committed decisions with
			// their post-commit probes, exactly as Synthesize drives the loop.
			for i := 0; i < 6; i++ {
				dec, ok := st.bestDecision()
				if !ok {
					t.Fatalf("step %d: no decision", i)
				}
				st.commit(dec)
				probe, err := st.currentPASAP()
				if err != nil {
					t.Fatal(err)
				}
				st.noteProbe(dec, probe)
			}
			if !st.eng.warm {
				t.Fatal("engine not warm after 6 commits")
			}
			got := testing.AllocsPerRun(20, func() {
				if _, ok := st.bestDecision(); !ok {
					t.Fatal("no decision")
				}
			})
			// A repeated warm iteration is served from the flat window
			// table, the override cache and the scheduler arena. On
			// elliptic the last commit left the base pair valid, so it
			// allocates nothing; on hal it runs one full PALAP, which
			// allocates 4. The pre-optimization map-of-maps path allocated
			// several hundred per iteration.
			const max = 8
			if got > max {
				t.Fatalf("warm bestDecision allocates %.1f/run, budget %d", got, max)
			}
			t.Logf("warm bestDecision: %.1f allocs/run", got)
		})
	}
}
