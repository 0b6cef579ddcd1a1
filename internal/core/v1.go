package core

import (
	"pchls/internal/cdfg"
	"pchls/internal/sched"
)

// syncCompat reconciles the incrementally maintained compatibility graph
// with this iteration's candidate windows. A committed operation collapses
// to a point window at its committed module (its other candidates become
// infeasible); every open (node, module) candidate takes the window the
// derivation just produced. Incremental.Set patches only edges incident
// to candidates that actually changed — the dirty set that commit,
// uncommit and repair induce through the window table — so a steady-state
// iteration re-derives O(changed·n) edge bits instead of the O((n·m)²)
// full rebuild the pre-refactor structure paid.
func (st *state) syncCompat() {
	ic := st.v1
	for i := 0; i < st.g.N(); i++ {
		v := cdfg.NodeID(i)
		if st.committed[i] {
			for _, mi := range st.cand[i] {
				if mi == st.moduleOf[i] {
					w := sched.Window{Early: st.start[i], Late: st.start[i]}
					if ic.Set(v, mi, w, true) {
						st.stats.CompatPatches++
					}
				} else if ic.Set(v, mi, sched.Window{}, false) {
					st.stats.CompatPatches++
				}
			}
			continue
		}
		for _, mi := range st.cand[i] {
			w, ok := st.getWin(v, mi)
			if ic.Set(v, mi, w, ok) {
				st.stats.CompatPatches++
			}
		}
	}
	if st.cfg.auditCompat {
		if err := ic.Audit(); err != nil {
			// Test-only invariant: the patched edge set must equal the
			// from-scratch rebuild bit for bit.
			panic("core: incremental compatibility audit failed: " + err.Error())
		}
	}
}
