package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/url"

	"pchls/internal/cache"
	"pchls/internal/cdfg"
	"pchls/internal/cluster"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/library"
)

// The cluster-internal endpoints and the coordinator's grid sharding.
//
// A worker's /cluster/point is POST /v1/synthesize with a different
// envelope: the same request schema plus a body flag, routed through the
// same cache key and the same engine invocation, but answered as a
// JSON-wrapped (status, summary, stats) triple so the coordinator can
// reassemble grids byte-identically — including deterministic 422s —
// without parsing failure bodies out of HTTP errors. The design document
// itself travels only when the point request asks for it (the
// coordinator's single synthesize); grid cells need only the summary.
// /cluster/cache exposes the result cache read-only for peer fill, body
// included; it never computes, so peers cannot recurse into each other.

// gridForward is the request-source part of a grid's point requests:
// the benchmark name, or the inline graph/library serialized once and
// shared by every point of the grid.
type gridForward struct {
	benchmark string
	graph     json.RawMessage
	library   json.RawMessage
}

func forwardSource(benchmark string, graph *cdfg.Graph, lib *library.Library) (gridForward, error) {
	f := gridForward{benchmark: benchmark}
	if benchmark == "" && graph != nil {
		raw, err := json.Marshal(graph)
		if err != nil {
			return f, err
		}
		f.graph = raw
	}
	if lib != nil {
		raw, err := json.Marshal(lib)
		if err != nil {
			return f, err
		}
		f.library = raw
	}
	return f, nil
}

func (f gridForward) point(cons core.Constraints, singlePass bool) cluster.PointRequest {
	return cluster.PointRequest{
		Benchmark:  f.benchmark,
		Graph:      f.graph,
		Library:    f.library,
		Deadline:   cons.Deadline,
		PowerMax:   cons.PowerMax,
		SinglePass: singlePass,
	}
}

// pointRequest is the body of POST /cluster/point as a worker decodes
// it: a synthesize request plus cluster.PointRequest's Body flag.
type pointRequest struct {
	synthesizeRequest
	Body bool `json:"body,omitempty"`
}

// execPoint is /cluster/point's core: execSynthesize, answered without
// the response bytes unless the request asks for them. The cache entry
// keeps its body either way; only this answer leaves it out.
func (s *Server) execPoint(ctx context.Context, req *pointRequest) (*result, cache.Outcome, error) {
	res, outcome, err := s.execSynthesize(ctx, &req.synthesizeRequest)
	if err != nil || req.Body {
		return res, outcome, err
	}
	summary := *res
	summary.body = nil
	return &summary, outcome, nil
}

// clusterEval builds the explore Eval hook of a grid request: nil on a
// server without a pool, which evaluates cells in-process. On a
// coordinator it shards the grid across the worker pool: every cell keeps
// the content address it would have as an individual /v1/synthesize
// request, so the pool's consistent hashing sends it to the worker whose
// cache is hot for it, and the cells' summaries feed the same subsumption
// assembly the local path uses. No design body crosses the wire.
func (s *Server) clusterEval(benchmark string, graph *cdfg.Graph, reqLib *library.Library,
	g *cdfg.Graph, lib *library.Library, singlePass bool) (func(ctx context.Context, cons []core.Constraints) ([]explore.Point, error), error) {
	pool := s.cfg.Pool
	if pool == nil {
		return nil, nil
	}
	fwd, err := forwardSource(benchmark, graph, reqLib)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context, cons []core.Constraints) ([]explore.Point, error) {
		keys := cache.SynthesizeKeys(g, lib, cons, singlePass)
		reqs := make([]cluster.PointRequest, len(cons))
		for i, cn := range cons {
			reqs[i] = fwd.point(cn, singlePass)
		}
		resps, err := pool.MapPoints(ctx, keys, reqs)
		if err != nil {
			return nil, err
		}
		pts := make([]explore.Point, len(resps))
		for i, resp := range resps {
			pr, err := resp.Result()
			if err != nil {
				return nil, err
			}
			pts[i] = explore.Point{
				Feasible:  pr.Feasible,
				Area:      pr.Area,
				Peak:      pr.Peak,
				FUs:       pr.FUs,
				Registers: pr.Registers,
				Locked:    pr.Locked,
				Stats:     pr.Stats,
			}
		}
		return pts, nil
	}, nil
}

// writePoint answers /cluster/point, which evaluates one grid cell on a
// worker: the same request schema, cache key and engine path as
// /v1/synthesize, answered as a PointResponse (without the body unless
// execPoint kept it). Deterministic infeasibility rides inside the
// response (status 422) like any cached result; only transient faults
// (overload, deadline) use the HTTP status, which tells the coordinator
// to retry elsewhere.
func writePoint(w http.ResponseWriter, res *result, outcome cache.Outcome) {
	body, err := json.Marshal(cluster.PointResponse{
		CachedResult: cluster.CachedResult{Status: res.status, Body: res.body, Summary: res.sum, Stats: res.stats},
		Cache:        outcome.String(),
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(headerCache, outcome.String())
	_, _ = w.Write(body)
}

// handleClusterCache is the read-only peer-fill probe: it answers from
// the local cache or says 404, and never computes anything.
func (s *Server) handleClusterCache(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeError(w, http.StatusBadRequest, `query parameter "key" is required`)
		return
	}
	res, ok := s.cache.Get(key)
	if !ok {
		writeError(w, http.StatusNotFound, "not cached")
		return
	}
	body, err := json.Marshal(cluster.CachedResult{Status: res.status, Body: res.body, Summary: res.sum, Stats: res.stats})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// handleClusterRegister accepts a worker's registration and answers with
// the coordinator's current member list.
func (s *Server) handleClusterRegister(w http.ResponseWriter, r *http.Request) {
	var req cluster.RegisterRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeFailure(w, err)
		return
	}
	u, err := url.Parse(req.Addr)
	if err != nil || u.Scheme == "" || u.Host == "" {
		writeError(w, http.StatusBadRequest, `"addr" must be an absolute URL like http://host:port`)
		return
	}
	s.cfg.Pool.Add(req.Addr)
	body, err := json.Marshal(cluster.RegisterResponse{Members: s.cfg.Pool.Members()})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}
