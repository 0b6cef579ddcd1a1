package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"pchls/internal/core"
)

// The cluster-internal wire schema. These types ride between coordinator
// and workers (POST /cluster/point) and between cache peers
// (GET /cluster/cache); they are not part of the public /v1 API.

// PointRequest is one grid cell shipped to a worker: the same JSON schema
// as POST /v1/synthesize, so the worker decodes it with the same
// validating request parser, plus Body. Graph and Library are
// pre-marshaled raw JSON, letting a coordinator serialize them once per
// grid instead of once per point.
type PointRequest struct {
	Benchmark  string          `json:"benchmark,omitempty"`
	Graph      json.RawMessage `json:"graph,omitempty"`
	Library    json.RawMessage `json:"library,omitempty"`
	Deadline   int             `json:"deadline"`
	PowerMax   float64         `json:"power_max,omitempty"`
	SinglePass bool            `json:"single_pass,omitempty"`
	// Body asks for the response bytes in the answer. Grid cells leave it
	// false: their assembly reads only the Summary, so the design
	// document stays on the worker.
	Body bool `json:"body,omitempty"`
}

// Summary is what grid assembly reads of a design: the values
// Design.JSON writes for the total area, the peak power, the number of
// functional units and registers, and repair_locked. encoding/json
// writes a float64 in shortest round-trip form, so Area and Peak cross
// the wire as the engine's exact bits.
type Summary struct {
	Area      float64 `json:"area"`
	Peak      float64 `json:"peak"`
	FUs       int     `json:"fus"`
	Registers int     `json:"registers"`
	Locked    bool    `json:"locked"`
}

// SummaryOf reads the summary of a synthesized design.
func SummaryOf(d *core.Design) Summary {
	return Summary{
		Area:      d.Area(),
		Peak:      d.Schedule.PeakPower(),
		FUs:       len(d.FUs),
		Registers: len(d.Datapath.Registers),
		Locked:    d.Locked,
	}
}

// CachedResult is a serialized result-cache entry: the exact response
// status and bytes of the producing /v1/synthesize run, the summary of
// its design and its full engine work counters. It is what a peer
// returns on a cache probe (always with the body, which the peer caches
// and may serve) and the payload a worker's point evaluation wraps (with
// the body only when the point request asked for it).
type CachedResult struct {
	// Status is the HTTP status of the cached response: 200 for a design,
	// 422 for deterministic infeasibility.
	Status int `json:"status"`
	// Body is the exact response bytes (a design JSON document or an
	// error JSON document), or nil when the answer leaves it out.
	Body []byte `json:"body,omitempty"`
	// Summary is the design's summary on a 200 and zero otherwise.
	Summary Summary `json:"summary"`
	// Stats carries the producing run's engine counters; synthesis is
	// deterministic, so replayed stats equal what a fresh run would count.
	Stats core.Stats `json:"stats"`
}

// PointResponse is the worker's answer to POST /cluster/point: the cached
// result plus the worker-side cache outcome ("hit", "miss", "coalesced",
// "peer") for observability.
type PointResponse struct {
	CachedResult
	Cache string `json:"cache"`
}

// PointResult is a decoded grid-cell outcome, carrying everything the
// sweep/surface assembly passes need. The fields mirror what the local
// engine records per cell, so a coordinator's assembled response is
// byte-identical to single-process evaluation.
type PointResult struct {
	Feasible bool
	Summary
	Stats core.Stats
}

// Result turns the cached result into the per-cell fields the
// exploration assembly needs, from the summary alone. A 422 becomes an
// infeasible point with zero stats, matching what the local engine
// records for infeasible cells; any other non-200 status is an error
// (workers never cache those).
func (c CachedResult) Result() (PointResult, error) {
	switch c.Status {
	case http.StatusUnprocessableEntity:
		return PointResult{}, nil
	case http.StatusOK:
		return PointResult{Feasible: true, Summary: c.Summary, Stats: c.Stats}, nil
	default:
		return PointResult{}, fmt.Errorf("cluster: unexpected point status %d", c.Status)
	}
}

// RegisterRequest is the body of POST /cluster/register: a worker
// announcing itself to a coordinator.
type RegisterRequest struct {
	Addr string `json:"addr"`
}

// RegisterResponse acknowledges a registration with the coordinator's
// current member list.
type RegisterResponse struct {
	Members []string `json:"members"`
}
