package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"pchls/internal/cache"
	"pchls/internal/runner"
)

// POST /v1/batch: a list of synthesize/portfolio/sweep/surface/pareto requests
// evaluated with bounded fan-out, answered as index-ordered results.
// Each item routes through the same exec core as its standalone
// endpoint — same cache key, same admission slots, same engine or
// cluster dispatch — so an item's status and body are byte-identical to
// the response of the corresponding individual request.

// maxBatchRequests bounds one batch; larger workloads paginate.
const maxBatchRequests = 256

// batchItem is one request of a batch: exactly one field must be set.
type batchItem struct {
	Synthesize *synthesizeRequest `json:"synthesize,omitempty"`
	Portfolio  *portfolioRequest  `json:"portfolio,omitempty"`
	Sweep      *sweepRequest      `json:"sweep,omitempty"`
	Surface    *surfaceRequest    `json:"surface,omitempty"`
	Pareto     *paretoRequest     `json:"pareto,omitempty"`
}

func (it batchItem) kinds() int {
	n := 0
	for _, set := range []bool{it.Synthesize != nil, it.Portfolio != nil, it.Sweep != nil, it.Surface != nil, it.Pareto != nil} {
		if set {
			n++
		}
	}
	return n
}

type batchRequest struct {
	Requests []batchItem `json:"requests"`
}

// batchItemJSON is one item's outcome: the HTTP status and exact body
// the standalone endpoint would have produced, plus the cache outcome
// ("" when the item failed before reaching the cache). Body is base64
// on the wire ([]byte), not embedded JSON: re-indenting an embedded
// document would break the byte-for-byte equality with the standalone
// response that base64 preserves.
type batchItemJSON struct {
	Status int    `json:"status"`
	Cache  string `json:"cache,omitempty"`
	Body   []byte `json:"body"`
}

type batchJSON struct {
	Results []batchItemJSON `json:"results"`
}

// execBatchItem runs one batch item with its own request timeout,
// mirroring how a standalone request would be bounded.
func (s *Server) execBatchItem(parent context.Context, it batchItem) batchItemJSON {
	ctx, cancel := context.WithTimeout(parent, s.cfg.RequestTimeout)
	defer cancel()
	var (
		res     *result
		outcome cache.Outcome
		err     error
	)
	switch {
	case it.Synthesize != nil:
		res, outcome, err = s.execSynthesize(ctx, it.Synthesize)
	case it.Portfolio != nil:
		res, outcome, err = s.execPortfolio(ctx, it.Portfolio)
	case it.Sweep != nil:
		res, outcome, err = s.execSweep(ctx, it.Sweep)
	case it.Surface != nil:
		res, outcome, err = s.execSurface(ctx, it.Surface)
	case it.Pareto != nil:
		res, outcome, err = s.execPareto(ctx, it.Pareto)
	}
	if err != nil {
		status, body, _ := errorStatus(err)
		return batchItemJSON{Status: status, Body: body}
	}
	return batchItemJSON{Status: res.Status, Cache: outcome.String(), Body: res.Body}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeJSON(r.Body, &req); err != nil {
		writeFailure(w, err)
		return
	}
	if len(req.Requests) == 0 {
		writeError(w, http.StatusBadRequest, `"requests" must be non-empty`)
		return
	}
	if len(req.Requests) > maxBatchRequests {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("a batch may hold at most %d requests", maxBatchRequests))
		return
	}
	for i, it := range req.Requests {
		if it.kinds() != 1 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf(`request %d must set exactly one of "synthesize", "portfolio", "sweep", "surface", "pareto"`, i))
			return
		}
	}
	// Fan out at most Workers items concurrently: items acquire the same
	// admission slots as standalone requests, so a wider fan-out would
	// only convert queue waits into 429s.
	results, err := runner.Map(r.Context(), len(req.Requests), runner.Config{Workers: s.cfg.Workers},
		func(ctx context.Context, i int) (batchItemJSON, error) {
			return s.execBatchItem(ctx, req.Requests[i]), nil
		})
	if err != nil {
		writeFailure(w, err)
		return
	}
	body, err := json.MarshalIndent(batchJSON{Results: results}, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}
