package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"pchls/internal/core"
	"pchls/internal/explore"
)

// The cluster-internal wire schema. These types ride between coordinator
// and workers (POST /cluster/point) and between cache peers
// (GET /cluster/cache); they are not part of the public /v1 API.

// Source is what a forwarded request synthesizes, in the fields of the
// /v1 request schemas: a built-in benchmark name, or an inline graph, and
// an optional module library. Graph and Library are pre-marshaled raw
// JSON, letting a coordinator serialize them once per request instead of
// once per grid cell.
type Source struct {
	Benchmark string          `json:"benchmark,omitempty"`
	Graph     json.RawMessage `json:"graph,omitempty"`
	Library   json.RawMessage `json:"library,omitempty"`
}

// PointRequest is one grid cell shipped to a worker: the same JSON schema
// as POST /v1/synthesize, so the worker decodes it with the same
// validating request parser, plus Body.
type PointRequest struct {
	Source
	Deadline   int     `json:"deadline"`
	PowerMax   float64 `json:"power_max,omitempty"`
	SinglePass bool    `json:"single_pass,omitempty"`
	// Body asks for the response bytes in the answer. Grid cells leave it
	// false: their assembly reads only the Summary, so the design
	// document stays on the worker.
	Body bool `json:"body,omitempty"`
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
	Summary explore.Summary `json:"summary"`
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

// Result turns the cached result into the grid cell the exploration
// assembly reads, from the summary alone. A 422 becomes an infeasible
// point with zero stats, matching what the local engine records for
// infeasible cells; any other non-200 status is an error (workers never
// cache those). Power is left for the assembly to fill from its grid.
func (c CachedResult) Result() (explore.Point, error) {
	switch c.Status {
	case http.StatusUnprocessableEntity:
		return explore.Point{}, nil
	case http.StatusOK:
		return explore.Point{Feasible: true, Summary: c.Summary, Stats: c.Stats}, nil
	default:
		return explore.Point{}, fmt.Errorf("cluster: unexpected point status %d", c.Status)
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
