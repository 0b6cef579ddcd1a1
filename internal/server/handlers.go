package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"pchls/internal/bench"
	"pchls/internal/cache"
	"pchls/internal/cdfg"
	"pchls/internal/cluster"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/portfolio"
	"pchls/internal/power"
)

// Response headers carrying per-request observability: the cache outcome
// and the engine work behind the bytes served. They ride outside the body
// so warm responses stay byte-identical to the cold run that filled the
// cache.
const (
	headerCache           = "X-Pchls-Cache"          // hit | miss | coalesced | peer
	headerSchedulerRuns   = "X-Pchls-Scheduler-Runs" // full scheduler runs this request performed
	headerIncrementalRuns = "X-Pchls-Incremental-Runs"
)

type errorJSON struct {
	Error string `json:"error"`
}

// errorBody renders the error document. Batch items and direct endpoint
// responses share it, so an error is byte-identical either way.
func errorBody(msg string) []byte {
	b, err := json.Marshal(errorJSON{Error: msg})
	if err != nil {
		return []byte(`{"error":"internal error"}` + "\n")
	}
	return append(b, '\n')
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(errorBody(msg))
}

// proxyError carries a worker's non-cacheable response verbatim through
// the coordinator's proxy path, preserving its status.
type proxyError struct {
	status int
	body   []byte
}

func (e *proxyError) Error() string {
	return fmt.Sprintf("worker returned %d", e.status)
}

// errorStatus maps a request that produced no result to a status and
// response body, shared by direct responses and batch items: client
// faults (decode, validation), then the non-cacheable computation
// failures (overload, no workers, deadline, a proxied worker failure).
func errorStatus(err error) (status int, body []byte, retryAfter bool) {
	var tooLarge *http.MaxBytesError
	var pe *proxyError
	switch {
	case isRequestError(err) && errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, errorBody(err.Error()), false
	case isRequestError(err):
		return http.StatusBadRequest, errorBody(err.Error()), false
	case errors.Is(err, overloadError{}):
		return http.StatusTooManyRequests, errorBody(err.Error()), true
	case errors.Is(err, cluster.ErrNoWorkers):
		return http.StatusServiceUnavailable, errorBody(err.Error()), false
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, errorBody("request deadline exceeded before synthesis completed"), false
	case errors.As(err, &pe):
		return pe.status, pe.body, pe.status == http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError, errorBody(err.Error()), false
	}
}

// writeFailure writes the errorStatus response of err.
func writeFailure(w http.ResponseWriter, err error) {
	status, body, retryAfter := errorStatus(err)
	if retryAfter {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// handle is the request path of every computing POST endpoint: decode
// the body into a fresh request, run exec under the request timeout, and
// write the result with write or the failure with writeFailure.
func handle[R any](s *Server, exec func(context.Context, *R) (*result, cache.Outcome, error),
	write func(http.ResponseWriter, *result, cache.Outcome)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req R
		if err := decodeJSON(r.Body, &req); err != nil {
			writeFailure(w, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		res, outcome, err := exec(ctx, &req)
		if err != nil {
			writeFailure(w, err)
			return
		}
		write(w, res, outcome)
	}
}

// writeResult replays a (possibly cached) result. Warm hits — local or
// peer-filled — report zero engine work: this request performed none.
func writeResult(w http.ResponseWriter, res *result, outcome cache.Outcome) {
	sched, incr := int64(0), int64(0)
	if outcome == cache.Miss || outcome == cache.Coalesced {
		sched, incr = res.stats.SchedulerRuns, res.stats.IncrementalRuns
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(headerCache, outcome.String())
	w.Header().Set(headerSchedulerRuns, strconv.FormatInt(sched, 10))
	w.Header().Set(headerIncrementalRuns, strconv.FormatInt(incr, 10))
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// infeasibleResult renders a deterministic synthesis failure (infeasible
// constraints, uncovered operations) as a cacheable 422.
func infeasibleResult(err error) *result {
	body, merr := json.MarshalIndent(errorJSON{Error: err.Error()}, "", "  ")
	if merr != nil {
		body = []byte(`{"error":"infeasible"}`)
	}
	return &result{status: http.StatusUnprocessableEntity, body: body}
}

// compute wraps the admission-control + synthesis body shared by the
// three POST endpoints: acquire a worker slot, run fn, classify errors.
// Deterministic failures come back as cacheable results; overload and
// deadline failures come back as errors (not cached).
func (s *Server) compute(ctx context.Context, fn func(ctx context.Context) (*result, error)) (*result, error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	res, err := fn(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if errors.Is(err, core.ErrInfeasible) || errors.Is(err, core.ErrUncovered) {
			return infeasibleResult(err), nil
		}
		return nil, err
	}
	return res, nil
}

// execSynthesize is the synthesize endpoint's core, shared by the HTTP
// handler, batch items and the worker point endpoint: derive the content
// address, consult the cache (and, on a worker, the peer ring), and on a
// cold miss either run the engine locally or — on a coordinator —
// dispatch the point to the worker owning its key.
func (s *Server) execSynthesize(ctx context.Context, req *synthesizeRequest) (*result, cache.Outcome, error) {
	g, lib, cons, err := req.validate()
	if err != nil {
		return nil, 0, err
	}
	key := cache.SynthesizeKey(g, lib, cons, req.SinglePass)
	return s.cache.Do(ctx, key, func(ctx context.Context) (*result, error) {
		if pool := s.cfg.Pool; pool != nil {
			return s.compute(ctx, func(ctx context.Context) (*result, error) {
				fwd, err := forwardSource(req.Benchmark, req.Graph, req.Library)
				if err != nil {
					return nil, err
				}
				preq := fwd.point(cons, req.SinglePass)
				preq.Body = true
				resp, err := pool.Point(ctx, key, preq)
				if err != nil {
					return nil, err
				}
				return &result{status: resp.Status, body: resp.Body, sum: resp.Summary, stats: resp.Stats}, nil
			})
		}
		return s.compute(ctx, func(ctx context.Context) (*result, error) {
			d, err := s.synth(ctx, g, lib, cons, core.Config{Workers: 1}, req.SinglePass)
			if err != nil {
				return nil, err
			}
			if err := s.validateDesign(d); err != nil {
				return nil, err
			}
			s.noteStats(d.Stats)
			body, err := d.JSON()
			if err != nil {
				return nil, err
			}
			return &result{status: http.StatusOK, body: body, sum: cluster.SummaryOf(d), stats: d.Stats}, nil
		})
	})
}

// portfolioStatsJSON summarizes the portfolio search alongside the
// winning design (deterministic for a given request, so safe to cache).
type portfolioStatsJSON struct {
	BaselineArea       float64 `json:"baseline_area"`
	BaselinePeak       float64 `json:"baseline_peak"`
	Area               float64 `json:"area"`
	PeakPower          float64 `json:"peak_power"`
	Improved           bool    `json:"improved"`
	Gap                float64 `json:"gap"`
	Rounds             int     `json:"rounds"`
	Passes             int     `json:"passes"`
	Aborted            int     `json:"aborted"`
	Infeasible         int     `json:"infeasible"`
	PassImprovements   int     `json:"pass_improvements"`
	Splices            int     `json:"splices"`
	SpliceImprovements int     `json:"splice_improvements"`
}

type portfolioJSON struct {
	Design    json.RawMessage    `json:"design"`
	Portfolio portfolioStatsJSON `json:"portfolio"`
}

// proxy forwards a whole request to the worker owning key: the path for
// endpoints whose result cannot be decomposed into grid points. A
// transient worker-side failure (overload, drain) comes back verbatim as
// a proxyError and is never cached.
func proxy(ctx context.Context, pool *cluster.Pool, key, path string, req any) (*result, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	status, respBody, err := pool.Proxy(ctx, key, path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK && status != http.StatusUnprocessableEntity {
		return nil, &proxyError{status: status, body: respBody}
	}
	return &result{status: status, body: respBody}, nil
}

// execPortfolio is the portfolio endpoint's core. A coordinator cannot
// decompose the portfolio search into grid points, so it proxies the
// whole request to the worker owning the portfolio's content address —
// the same worker every time, so repeats hit that worker's cache.
func (s *Server) execPortfolio(ctx context.Context, req *portfolioRequest) (*result, cache.Outcome, error) {
	g, lib, cons, err := req.validate()
	if err != nil {
		return nil, 0, err
	}
	key := cache.PortfolioKey(g, lib, cons, req.K, req.Budget, req.Seed)
	return s.cache.Do(ctx, key, func(ctx context.Context) (*result, error) {
		if pool := s.cfg.Pool; pool != nil {
			return s.compute(ctx, func(ctx context.Context) (*result, error) {
				return proxy(ctx, pool, key, "/v1/portfolio", req)
			})
		}
		return s.compute(ctx, func(ctx context.Context) (*result, error) {
			pres, err := portfolio.SynthesizeContext(ctx, g, lib, cons, portfolio.Config{
				K:        req.K,
				Budget:   req.Budget,
				Seed:     req.Seed,
				Workers:  s.cfg.ExploreWorkers,
				InFlight: s.runnerInflight,
				Core:     core.Config{Workers: 1},
			})
			if err != nil {
				return nil, err
			}
			if err := s.validateDesign(pres.Design); err != nil {
				return nil, err
			}
			s.noteStats(pres.Design.Stats)
			s.portfolioImprovements.Add(int64(pres.PassImprovements + pres.SpliceImprovements))
			s.portfolioGap.Observe(pres.Gap())
			design, err := pres.Design.JSON()
			if err != nil {
				return nil, err
			}
			body, err := json.MarshalIndent(portfolioJSON{
				Design: design,
				Portfolio: portfolioStatsJSON{
					BaselineArea:       pres.BaselineArea,
					BaselinePeak:       pres.BaselinePeak,
					Area:               pres.Design.Area(),
					PeakPower:          pres.Design.Schedule.PeakPower(),
					Improved:           pres.Improved,
					Gap:                pres.Gap(),
					Rounds:             pres.Rounds,
					Passes:             pres.Passes,
					Aborted:            pres.Aborted,
					Infeasible:         pres.Infeasible,
					PassImprovements:   pres.PassImprovements,
					Splices:            pres.Splices,
					SpliceImprovements: pres.SpliceImprovements,
				},
			}, "", "  ")
			if err != nil {
				return nil, err
			}
			return &result{status: http.StatusOK, body: body, stats: pres.Design.Stats}, nil
		})
	})
}

// statsJSON is the work-counter schema embedded in sweep and surface
// responses (deterministic for a given request, so safe to cache).
type statsJSON struct {
	SchedulerRuns     int64 `json:"scheduler_runs"`
	IncrementalRuns   int64 `json:"incremental_runs"`
	WindowCacheHits   int64 `json:"window_cache_hits"`
	WindowCacheMisses int64 `json:"window_cache_misses"`
}

func toStatsJSON(st core.Stats) statsJSON {
	return statsJSON{
		SchedulerRuns:     st.SchedulerRuns,
		IncrementalRuns:   st.IncrementalRuns,
		WindowCacheHits:   st.WindowCacheHits,
		WindowCacheMisses: st.WindowCacheMisses,
	}
}

type curvePointJSON struct {
	Power     float64 `json:"power"`
	Feasible  bool    `json:"feasible"`
	Area      float64 `json:"area"`
	Peak      float64 `json:"peak"`
	FUs       int     `json:"fus"`
	Registers int     `json:"registers"`
	Locked    bool    `json:"locked"`
}

type curveJSON struct {
	Benchmark  string           `json:"benchmark"`
	Deadline   int              `json:"deadline"`
	Points     []curvePointJSON `json:"points"`
	TotalStats statsJSON        `json:"total_stats"`
}

// execSweep is the sweep endpoint's core. On a coordinator the grid
// cells are sharded across the worker fleet (explore's Eval hook); the
// subsumption assembly and JSON rendering are the same code either way,
// so the response bytes are identical.
func (s *Server) execSweep(ctx context.Context, req *sweepRequest) (*result, cache.Outcome, error) {
	g, lib, err := req.validate()
	if err != nil {
		return nil, 0, err
	}
	key := cache.SweepKey(g, lib, req.Deadline, req.PowerMin, req.PowerMax, req.Step, req.SinglePass)
	return s.cache.Do(ctx, key, func(ctx context.Context) (*result, error) {
		return s.compute(ctx, func(ctx context.Context) (*result, error) {
			eval, err := s.clusterEval(req.Benchmark, req.Graph, req.Library, g, lib, req.SinglePass)
			if err != nil {
				return nil, err
			}
			cfg := explore.SweepConfig{
				PowerMin:   req.PowerMin,
				PowerMax:   req.PowerMax,
				Step:       req.Step,
				SinglePass: req.SinglePass,
				Workers:    s.cfg.ExploreWorkers,
				InFlight:   s.runnerInflight,
				Eval:       eval,
				Config:     core.Config{Workers: 1},
			}
			curve, err := explore.SweepContext(ctx, g, lib, req.Deadline, cfg)
			if err != nil {
				return nil, err
			}
			total := curve.TotalStats()
			if s.cfg.Pool == nil {
				s.noteStats(total)
			}
			out := curveJSON{
				Benchmark:  curve.Benchmark,
				Deadline:   curve.Deadline,
				Points:     make([]curvePointJSON, 0, len(curve.Points)),
				TotalStats: toStatsJSON(total),
			}
			for _, p := range curve.Points {
				out.Points = append(out.Points, curvePointJSON{
					Power: p.Power, Feasible: p.Feasible, Area: p.Area, Peak: p.Peak,
					FUs: p.FUs, Registers: p.Registers, Locked: p.Locked,
				})
			}
			body, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				return nil, err
			}
			return &result{status: http.StatusOK, body: body, stats: total}, nil
		})
	})
}

type surfacePointJSON struct {
	Deadline int     `json:"deadline"`
	Power    float64 `json:"power"`
	Feasible bool    `json:"feasible"`
	Area     float64 `json:"area"`
}

type surfaceJSON struct {
	Benchmark  string             `json:"benchmark"`
	Points     []surfacePointJSON `json:"points"`
	TotalStats statsJSON          `json:"total_stats"`
}

// execSurface is the surface endpoint's core; see execSweep for the
// coordinator sharding path.
func (s *Server) execSurface(ctx context.Context, req *surfaceRequest) (*result, cache.Outcome, error) {
	g, lib, err := req.validate()
	if err != nil {
		return nil, 0, err
	}
	key := cache.SurfaceKey(g, lib, req.Deadlines, req.Powers, req.SinglePass)
	return s.cache.Do(ctx, key, func(ctx context.Context) (*result, error) {
		return s.compute(ctx, func(ctx context.Context) (*result, error) {
			eval, err := s.clusterEval(req.Benchmark, req.Graph, req.Library, g, lib, req.SinglePass)
			if err != nil {
				return nil, err
			}
			cfg := explore.SurfaceConfig{
				Deadlines:  req.Deadlines,
				Powers:     req.Powers,
				SinglePass: req.SinglePass,
				Workers:    s.cfg.ExploreWorkers,
				InFlight:   s.runnerInflight,
				Eval:       eval,
				Config:     core.Config{Workers: 1},
			}
			surface, err := explore.ExploreSurfaceContext(ctx, g, lib, cfg)
			if err != nil {
				return nil, err
			}
			total := surface.TotalStats()
			if s.cfg.Pool == nil {
				s.noteStats(total)
			}
			out := surfaceJSON{
				Benchmark:  surface.Benchmark,
				Points:     make([]surfacePointJSON, 0, len(surface.Points)),
				TotalStats: toStatsJSON(total),
			}
			for _, p := range surface.Points {
				out.Points = append(out.Points, surfacePointJSON{
					Deadline: p.Deadline, Power: p.Power, Feasible: p.Feasible, Area: p.Area,
				})
			}
			body, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				return nil, err
			}
			return &result{status: http.StatusOK, body: body, stats: total}, nil
		})
	})
}

type paretoPointJSON struct {
	Deadline int             `json:"deadline"`
	Power    float64         `json:"power"`
	Area     float64         `json:"area"`
	Latency  int             `json:"latency"`
	Peak     float64         `json:"peak_power"`
	Lifetime int             `json:"lifetime"`
	Design   json.RawMessage `json:"design"`
}

type paretoJSON struct {
	Benchmark string            `json:"benchmark"`
	Battery   string            `json:"battery"`
	Evaluated int               `json:"evaluated"`
	Feasible  int               `json:"feasible"`
	Points    []paretoPointJSON `json:"points"`
}

// paretoMaxPeriods bounds the battery simulation of /v1/pareto; it is
// part of the content address because the lifetime objective — and with
// it the front membership — depends on it.
const paretoMaxPeriods = 1 << 20

// execPareto is the pareto endpoint's core. Like the portfolio, the
// front cannot be decomposed into independently cacheable grid points
// (domination is a cross-cell property), so a coordinator proxies the
// whole request to the worker owning its content address.
func (s *Server) execPareto(ctx context.Context, req *paretoRequest) (*result, cache.Outcome, error) {
	g, lib, err := req.validate()
	if err != nil {
		return nil, 0, err
	}
	model, capacity := req.batteryModel()
	key := cache.ParetoKey(g, lib, req.Deadlines, req.Powers, model, capacity, paretoMaxPeriods, req.SinglePass)
	return s.cache.Do(ctx, key, func(ctx context.Context) (*result, error) {
		if pool := s.cfg.Pool; pool != nil {
			return s.compute(ctx, func(ctx context.Context) (*result, error) {
				return proxy(ctx, pool, key, "/v1/pareto", req)
			})
		}
		return s.compute(ctx, func(ctx context.Context) (*result, error) {
			var battery power.Battery
			var berr error
			if capacity > 0 {
				battery, berr = explore.NewBattery(model, capacity)
			} else {
				battery, berr = explore.DefaultBattery(g, lib, model)
			}
			if berr != nil {
				return nil, berr
			}
			front, err := explore.ExploreParetoContext(ctx, g, lib, explore.ParetoConfig{
				Deadlines:  req.Deadlines,
				Powers:     req.Powers,
				Battery:    battery,
				MaxPeriods: paretoMaxPeriods,
				SinglePass: req.SinglePass,
				Workers:    s.cfg.ExploreWorkers,
				InFlight:   s.runnerInflight,
				Config:     core.Config{Workers: 1},
			})
			if err != nil {
				return nil, err
			}
			var total core.Stats
			out := paretoJSON{
				Benchmark: front.Benchmark,
				Battery:   battery.Model(),
				Evaluated: front.Evaluated,
				Feasible:  front.Feasible,
				Points:    make([]paretoPointJSON, 0, len(front.Points)),
			}
			for _, p := range front.Points {
				if err := s.validateDesign(p.Design); err != nil {
					return nil, err
				}
				total = total.Add(p.Design.Stats)
				design, err := p.Design.JSON()
				if err != nil {
					return nil, err
				}
				out.Points = append(out.Points, paretoPointJSON{
					Deadline: p.Deadline, Power: p.PowerMax,
					Area: p.Area, Latency: p.Latency, Peak: p.Peak, Lifetime: p.Lifetime,
					Design: design,
				})
			}
			s.noteStats(total)
			s.paretoPoints.Observe(float64(len(front.Points)))
			body, err := json.MarshalIndent(out, "", "  ")
			if err != nil {
				return nil, err
			}
			return &result{status: http.StatusOK, body: body, stats: total}, nil
		})
	})
}

// benchmarkNames is the served benchmark catalogue, in the facade's
// canonical order (pchls.BenchmarkNames).
var benchmarkNames = []string{"hal", "cosine", "elliptic", "fir16", "ar", "diffeq2", "fft8"}

type benchmarkJSON struct {
	Name  string         `json:"name"`
	Nodes int            `json:"nodes"`
	Edges int            `json:"edges"`
	Ops   map[string]int `json:"ops"`
	Graph *cdfg.Graph    `json:"graph"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	out := make([]benchmarkJSON, 0, len(benchmarkNames))
	for _, name := range benchmarkNames {
		g, err := bench.ByName(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Sprintf("benchmark %q: %v", name, err))
			return
		}
		ops := make(map[string]int)
		for op, n := range g.OpCounts() {
			ops[op.String()] = n
		}
		out = append(out, benchmarkJSON{Name: name, Nodes: g.N(), Edges: g.E(), Ops: ops, Graph: g})
	}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}
