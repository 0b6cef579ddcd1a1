package sched

import (
	"errors"
	"fmt"

	"pchls/internal/cdfg"
)

// ErrStale is returned (wrapped) by WindowsDirty and the pinned schedulers
// under it when a clean node can no longer be replayed at its previous
// start time — the caller's dirty set was too small and the full
// scheduler must be rerun.
var ErrStale = errors.New("pinned placement no longer consistent")

// pinsFrom builds the pin slice for a dirty-subset run: dirty nodes get
// -1 (full placement search), clean nodes are pinned to prev(i). With an
// arena the slice is the recycled a.pin buffer, so it is only valid until
// the next pinsFrom call; the schedulers read it during the run but never
// retain it.
func pinsFrom(a *Arena, n int, prev func(i int) int, dirty []bool) []int {
	var pin []int
	if a != nil {
		pin = growInts(&a.pin, n)
	} else {
		pin = make([]int, n)
	}
	for i := range pin {
		if dirty == nil || dirty[i] {
			pin[i] = -1
		} else {
			pin[i] = prev(i)
		}
	}
	return pin
}

// WindowsDirty re-derives the power-feasible mobility windows for a dirty
// subset of nodes without re-scheduling the clean ones: clean nodes are
// pinned to their previous Early/Late starts, dirty nodes get the full
// placement search of the underlying pasap/palap pair. prev must be the
// window set of a previous Windows (or WindowsDirty) call under
// compatible options. When every clean node would land on its previous
// starts anyway the result is identical to a full Windows derivation; an
// error wrapping ErrStale means a replayed placement turned out
// inconsistent (precedence, power, horizon, or a missed earlier slot in
// the unconstrained case) — the dirty set was too small to absorb the
// change and the caller must fall back to the full Windows derivation.
func WindowsDirty(g *cdfg.Graph, bind Binding, deadline int, opts Options, prev []Window, dirty []bool) ([]Window, error) {
	if len(prev) != g.N() || (dirty != nil && len(dirty) != g.N()) {
		return nil, fmt.Errorf("sched: windows dirty: %d previous windows and %d dirty marks for %d nodes", len(prev), len(dirty), g.N())
	}
	return windowsPinned(g, bind, deadline, opts, prev, dirty)
}
