package main

import (
	"encoding/json"

	"pchls/internal/bind"
	"pchls/internal/cache"
	"pchls/internal/cdfg"
	"pchls/internal/cluster"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/library"
	"pchls/internal/sched"
	"pchls/internal/verify"
)

// probeInput is one synthesis problem a probe times the layers on.
type probeInput struct {
	g    *cdfg.Graph
	lib  *library.Library
	cons core.Constraints
	// single selects the single-pass flavour of the cache key.
	single bool
	// design is the operation's own design; nil makes the probe use the
	// design of its single-pass synthesis.
	design *core.Design
}

// probeRing is a two-member ring like the fleet's, for timing Ring.Owner.
var probeRing = cluster.NewRing([]string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, 0)

// probeLayers times each layer's public functions on one problem, one
// child span of c.span per call. Probes measure cost only: every outcome
// was already checked on the operation itself, so their results and errors
// are discarded.
func probeLayers(c *opCtx, in probeInput) {
	rec, parent, req := c.rec, c.span, c.seq
	elib := in.lib
	rec.do("library.Expand", parent, req, func() {
		if l, err := in.lib.Expand(); err == nil {
			elib = l
		}
	})
	// The schedulers run the way the synthesizer's hot path calls them:
	// precomputed delay/power tables and a warmed scratch arena.
	fastest := sched.UniformFastest(elib)
	n := in.g.N()
	delays, powers, free := make([]int, n), make([]float64, n), make([]int, n)
	for _, nd := range in.g.Nodes() {
		m := fastest(nd)
		delays[nd.ID], powers[nd.ID], free[nd.ID] = m.Delay, m.Power, -1
	}
	opts := sched.Options{PowerMax: in.cons.PowerMax, Delays: delays, Powers: powers, Arena: sched.NewArena(in.g)}
	_, _ = sched.PASAP(in.g, fastest, opts)
	_, _ = sched.PALAP(in.g, fastest, in.cons.Deadline, opts)
	rec.do("sched.PASAP", parent, req, func() { _, _ = sched.PASAP(in.g, fastest, opts) })
	rec.do("sched.PALAP", parent, req, func() { _, _ = sched.PALAP(in.g, fastest, in.cons.Deadline, opts) })
	rec.do("sched.Windows", parent, req, func() { _, _ = sched.Windows(in.g, fastest, in.cons.Deadline, opts) })
	if topo, err := in.g.TopoOrder(); err == nil {
		var b sched.SDCBounds
		rec.do("sched.DeriveSDCBounds", parent, req, func() {
			sched.DeriveSDCBounds(in.g, topo, in.cons.Deadline, delays, free, nil, nil, &b)
		})
	}
	rec.do("cdfg.Components", parent, req, func() { _ = in.g.Components() })
	rec.do("cdfg.PartitionBalanced", parent, req, func() { _, _, _ = in.g.PartitionBalanced(2) })
	if raw, err := json.Marshal(in.g); err == nil {
		rec.do("cdfg.ParseJSON", parent, req, func() { _, _ = cdfg.ParseJSON(raw) })
	}
	var key string
	rec.do("cache.Key", parent, req, func() { key = cache.SynthesizeKey(in.g, in.lib, in.cons, in.single) })
	rec.do("Ring.Owner", parent, req, func() { _ = probeRing.Owner(key) })

	d := in.design
	rec.do("core.Synthesize", parent, req, func() {
		if sd, err := core.Synthesize(in.g, in.lib, in.cons, core.Config{}); err == nil && d == nil {
			d = sd
		}
	})
	if d == nil {
		return // infeasible: no design to bind, check or encode
	}
	rec.do("bind.Build", parent, req, func() { _, _ = bind.Build(d.Graph, d.Schedule, d.FUs, d.FUOf, bind.DefaultCostModel()) })
	rec.do("verify.Check", parent, req, func() { _ = verify.Check(core.VerifyInput(d)) })
	rec.do("Design.JSON", parent, req, func() { _, _ = d.JSON() })
	if battery, err := explore.DefaultBattery(d.Graph, elib, "kibam"); err == nil {
		profile := d.Schedule.Profile()
		rec.do("power.Lifetime", parent, req, func() { _, _ = battery.Lifetime(profile, 1<<20) })
	}
}
