package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
)

// Cache keys are content addresses: a SHA-256 over a canonical rendering
// of every input that can change the response bytes — the CDFG (node
// names, operations and edges in ID order), the module library
// (declaration order), the constraints and the algorithm selection.
// Inputs that provably cannot change the result — worker counts, the
// incremental-engine toggle (byte-identical by the PR 2 equivalence
// gate) — are deliberately excluded so they share cache entries.
//
// The same addresses shard work across a cluster (internal/cluster):
// consistent hashing on the content address routes identical points to
// the same worker, so each worker's LRU stays hot for its shard, and
// cache peers use the address to ask "does the owner already have this?"
// before computing. Both uses need every process to derive bit-identical
// keys, which is why the derivation lives here rather than in each
// binary.
//
// The keyVersion prefix invalidates the whole address space whenever the
// canonical rendering or the response schema changes.
const keyVersion = "pchls-v1"

// canonFloat renders a float bit-exactly (hex float format), so distinct
// constraint values never collide and equal values always agree.
func canonFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// writeGraphLib renders the shared (graph, library) prefix of every key.
func writeGraphLib(sb *strings.Builder, g *cdfg.Graph, lib *library.Library) {
	sb.WriteString("graph\n")
	sb.WriteString(g.Text())
	sb.WriteString("library\n")
	for _, m := range lib.Modules() {
		ops := make([]string, len(m.Ops))
		for i, o := range m.Ops {
			ops[i] = o.String()
		}
		fmt.Fprintf(sb, "module %s %s %s %d %s\n",
			m.Name, strings.Join(ops, ","), canonFloat(m.Area), m.Delay, canonFloat(m.Power))
		// Voltage operating points are part of the module's identity: two
		// libraries differing only in levels produce different designs.
		for _, lv := range m.Levels {
			fmt.Fprintf(sb, "level %s %s %d %s\n",
				m.Name, canonFloat(lv.Voltage), lv.Delay, canonFloat(lv.Power))
		}
	}
}

// writeAxes renders a grid's deadline and power axes in request order.
// The explorers sort both axes, so the response does not depend on that
// order: two permutations of the same axes get two keys that hold the
// same bytes.
func writeAxes(sb *strings.Builder, deadlines []int, powers []float64) {
	sb.WriteString("deadlines=")
	for i, d := range deadlines {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(d))
	}
	sb.WriteString(" powers=")
	for i, p := range powers {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(canonFloat(p))
	}
	sb.WriteByte('\n')
}

func finishKey(sb *strings.Builder) string {
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

// SynthesizeKey derives the content address of one /v1/synthesize result
// — also the per-point sharding key for cluster grids.
func SynthesizeKey(g *cdfg.Graph, lib *library.Library, cons core.Constraints, singlePass bool) string {
	return SynthesizeKeys(g, lib, []core.Constraints{cons}, singlePass)[0]
}

// SynthesizeKeys derives the content addresses of a grid's cells, keys[i]
// for cons[i], rendering the (graph, library) text they share once.
func SynthesizeKeys(g *cdfg.Graph, lib *library.Library, cons []core.Constraints, singlePass bool) []string {
	var sb strings.Builder
	writeGraphLib(&sb, g, lib)
	shared := []byte(sb.String())
	keys := make([]string, len(cons))
	h := sha256.New()
	var sum [sha256.Size]byte
	var head []byte // the first line, the part that differs between cells
	for i, cn := range cons {
		head = fmt.Appendf(head[:0], "%s synthesize single=%t deadline=%d power=%s\n",
			keyVersion, singlePass, cn.Deadline, canonFloat(cn.PowerMax))
		h.Reset()
		h.Write(head)
		h.Write(shared)
		keys[i] = hex.EncodeToString(h.Sum(sum[:0]))
	}
	return keys
}

// PortfolioKey derives the content address of one /v1/portfolio result.
// The effort knobs (k, budget) and the seed are part of the address: the
// portfolio's output is a pure function of them.
func PortfolioKey(g *cdfg.Graph, lib *library.Library, cons core.Constraints, k, budget int, seed int64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s portfolio k=%d budget=%d seed=%d deadline=%d power=%s\n",
		keyVersion, k, budget, seed, cons.Deadline, canonFloat(cons.PowerMax))
	writeGraphLib(&sb, g, lib)
	return finishKey(&sb)
}

// SweepKey derives the content address of one /v1/sweep result.
func SweepKey(g *cdfg.Graph, lib *library.Library, deadline int, pmin, pmax, step float64, singlePass bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s sweep single=%t deadline=%d grid=%s:%s:%s\n",
		keyVersion, singlePass, deadline, canonFloat(pmin), canonFloat(pmax), canonFloat(step))
	writeGraphLib(&sb, g, lib)
	return finishKey(&sb)
}

// ParetoKey derives the content address of one /v1/pareto result. The
// battery parameters are part of the address: the lifetime objective —
// and with it the front membership — is a function of the model, its
// capacity and the simulation bound.
func ParetoKey(g *cdfg.Graph, lib *library.Library, deadlines []int, powers []float64, batteryModel string, capacity float64, maxPeriods int, singlePass bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s pareto single=%t battery=%s capacity=%s periods=%d ",
		keyVersion, singlePass, batteryModel, canonFloat(capacity), maxPeriods)
	writeAxes(&sb, deadlines, powers)
	writeGraphLib(&sb, g, lib)
	return finishKey(&sb)
}

// SurfaceKey derives the content address of one /v1/surface result.
func SurfaceKey(g *cdfg.Graph, lib *library.Library, deadlines []int, powers []float64, singlePass bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s surface single=%t ", keyVersion, singlePass)
	writeAxes(&sb, deadlines, powers)
	writeGraphLib(&sb, g, lib)
	return finishKey(&sb)
}
