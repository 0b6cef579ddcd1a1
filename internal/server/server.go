// Package server is the synthesis-as-a-service layer: a long-lived HTTP
// daemon that exposes the synthesis engine (internal/core), the
// exploration harness (internal/explore) and the benchmark suite
// (internal/bench) over JSON endpoints, turning the engine's per-run
// savings into cross-request wins.
//
// Endpoints:
//
//	POST /v1/synthesize   synthesize one design (body: synthesizeRequest)
//	POST /v1/portfolio    anytime portfolio synthesis (body: portfolioRequest)
//	POST /v1/sweep        area-versus-power sweep at fixed T
//	POST /v1/surface      (deadline x power) grid exploration
//	POST /v1/pareto       multi-objective (area, latency, peak, lifetime) front
//	POST /v1/batch        a list of the above, fanned out, index-ordered results
//	GET  /v1/benchmarks   the built-in benchmark CDFGs
//	GET  /healthz         liveness probe
//	GET  /metrics         Prometheus text-format metrics
//
// The same daemon also runs in two cluster roles (internal/cluster). With
// Config.Worker it additionally serves the cluster-internal endpoints —
// POST /cluster/point (evaluate one grid cell through the result cache)
// and GET /cluster/cache (read-only cache probe for peer fill) — and,
// given Config.Peers, consults the cache peer owning a key before
// computing a miss. With Config.Pool it becomes a coordinator: /v1 grids
// are sharded across the registered workers by the content address of
// each cell (consistent hashing keeps every worker's cache hot for its
// shard), with work-stealing and retry-on-failure, and POST
// /cluster/register accepts worker registrations. Either way the response
// bytes are identical to a single-process run: grid cells route through
// the same cache keys and the same assembly code.
//
// Three mechanisms make the daemon safe under heavy identical-query
// traffic, the access pattern of exploration workloads:
//
//   - A content-addressed result cache (internal/cache): responses are
//     keyed by a canonical hash of (CDFG, library, constraints, algorithm)
//     and served byte-identical on repeat, with LRU+TTL eviction.
//     Synthesis is deterministic, so a cached response is exactly the
//     bytes a fresh run would produce.
//   - Singleflight deduplication: concurrent identical requests run the
//     engine once; followers block on the in-flight computation and share
//     its result.
//   - Admission control: at most Workers synthesis computations run
//     concurrently, at most QueueDepth more wait; beyond that requests are
//     rejected immediately with 429. Every request carries a deadline
//     (RequestTimeout) enforced through context cancellation, and SIGTERM
//     drains in-flight requests before exit (http.Server.Shutdown).
package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"pchls/internal/cache"
	"pchls/internal/cdfg"
	"pchls/internal/cluster"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/library"
	"pchls/internal/obs"
	"pchls/internal/verify"
)

// Config parameterizes the daemon.
type Config struct {
	// Workers bounds concurrent synthesis computations (<= 0: 4).
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// slot beyond the ones running (<= 0: 4 * Workers).
	QueueDepth int
	// CacheEntries bounds the result cache (<= 0: 1024 entries).
	CacheEntries int
	// CacheTTL expires cached results (<= 0: no expiry).
	CacheTTL time.Duration
	// RequestTimeout is the per-request synthesis deadline (<= 0: 60s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies (<= 0: 8 MiB).
	MaxBodyBytes int64
	// ExploreWorkers is the per-request worker count handed to the
	// exploration harness for sweep/surface grids (0 = GOMAXPROCS).
	// Grid cells still count against the server's admission slots as a
	// single computation; this knob only controls intra-request fan-out.
	ExploreWorkers int
	// Validate re-checks every freshly synthesized design with the
	// independent constraint validator (internal/verify) before the
	// response is cached or served. A validation failure is a 500 — the
	// engine produced an invalid design — and is never cached. Cached
	// (warm) responses are not re-validated: they are byte-identical to a
	// validated cold run. Off by default; it costs O(T x n + n^2) per
	// synthesis.
	Validate bool
	// Worker mounts the cluster-internal endpoints (POST /cluster/point,
	// GET /cluster/cache) so this daemon can serve as a fleet worker.
	Worker bool
	// Peers, when non-nil, is this worker's cache-peer ring: on a local
	// cache miss the flight leader asks the key's owning peer before
	// computing (peer fill).
	Peers *cluster.Peers
	// Pool, when non-nil, turns the daemon into a coordinator: /v1 grid
	// endpoints shard their cells across the pool's workers instead of
	// computing locally, and POST /cluster/register is mounted.
	Pool *cluster.Pool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// result is one cached response: everything needed to replay it
// byte-identically, plus the work counters of the run that produced it.
type result struct {
	status int             // HTTP status (200, or 422 for deterministic infeasibility)
	body   []byte          // exact response bytes
	sum    cluster.Summary // the design's grid-cell summary (synthesize 200s only)
	stats  core.Stats      // engine work of the producing run (zero for 422)
}

// synthFunc runs one synthesis; it is a struct field so tests can
// substitute a gated implementation.
type synthFunc func(ctx context.Context, g *cdfg.Graph, lib *library.Library, cons core.Constraints, cfg core.Config, singlePass bool) (*core.Design, error)

// Server is the synthesis daemon. Construct with New; the zero value is
// not usable.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	reg   *obs.Registry
	cache *cache.Cache[*result]
	synth synthFunc

	sem     chan struct{} // admission slots: at most cfg.Workers computations
	waiting atomic.Int64  // admitted requests waiting for a slot

	hs       *http.Server
	draining atomic.Bool

	// Engine work counters, accumulated from Design.Stats after each run.
	schedulerRuns   *obs.Counter
	incrementalRuns *obs.Counter
	windowHits      *obs.Counter
	windowMisses    *obs.Counter
	engineRuns      *obs.Counter
	rejected        *obs.Counter
	inflight        *obs.Gauge
	runnerInflight  *obs.Gauge
	validations     *obs.Counter
	validationFails *obs.Counter

	// Portfolio QoR metrics: incumbent adoptions across all /v1/portfolio
	// runs, and the distribution of the relative gap closed over the
	// single-pass baseline.
	portfolioImprovements *obs.Counter
	portfolioGap          *obs.Histogram

	// paretoPoints tracks the non-dominated front sizes /v1/pareto returns.
	paretoPoints *obs.Histogram
}

// New builds a Server with its routes and metrics registered.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		reg:   obs.NewRegistry(),
		synth: explore.SynthesizeCell,
		sem:   make(chan struct{}, cfg.Workers),
	}
	var cacheOpts []cache.Option[*result]
	if cfg.Peers != nil {
		cacheOpts = append(cacheOpts, cache.WithPeer[*result](func(ctx context.Context, key string) (*result, bool) {
			cr, ok := cfg.Peers.Fetch(ctx, key)
			if !ok {
				return nil, false
			}
			return &result{status: cr.Status, body: cr.Body, sum: cr.Summary, stats: cr.Stats}, true
		}))
	}
	s.cache = cache.New[*result](cfg.CacheEntries, cfg.CacheTTL, cacheOpts...)

	s.engineRuns = s.reg.Counter("pchls_engine_synth_total", "synthesis computations executed (cache misses that ran the engine)")
	s.schedulerRuns = s.reg.Counter("pchls_engine_scheduler_runs_total", "full pasap/palap scheduler executions across all requests")
	s.incrementalRuns = s.reg.Counter("pchls_engine_incremental_runs_total", "incremental scheduler executions across all requests (always 0, kept for the v1 wire)")
	s.windowHits = s.reg.Counter("pchls_engine_window_cache_hits_total", "engine window-cache hits across all requests")
	s.windowMisses = s.reg.Counter("pchls_engine_window_cache_misses_total", "engine window-cache misses across all requests")
	s.rejected = s.reg.Counter("pchls_admission_rejected_total", "requests rejected by admission control (429)")
	s.validations = s.reg.Counter("pchls_validations_total", "designs re-checked by the independent constraint validator")
	s.validationFails = s.reg.Counter("pchls_validation_failures_total", "designs the independent validator rejected (served as 500, never cached)")
	s.portfolioImprovements = s.reg.Counter("pchls_portfolio_improvements_total", "incumbent adoptions (pass or splice) across portfolio runs")
	s.portfolioGap = s.reg.Histogram("pchls_portfolio_gap", "relative area improvement of portfolio runs over the single-pass baseline", obs.RatioBuckets)
	s.paretoPoints = s.reg.Histogram("pchls_pareto_points", "non-dominated front sizes returned by /v1/pareto", obs.CountBuckets)
	s.inflight = s.reg.Gauge("pchls_http_inflight", "requests currently being served")
	s.runnerInflight = s.reg.Gauge("pchls_runner_inflight", "exploration worker-pool items currently executing")
	s.reg.GaugeFunc("pchls_queue_waiting", "admitted requests waiting for a worker slot",
		func() float64 { return float64(s.waiting.Load()) })
	s.reg.GaugeFunc("pchls_cache_entries", "live result-cache entries",
		func() float64 { return float64(s.cache.Len()) })
	s.reg.CounterFunc("pchls_cache_hits_total", "result-cache hits",
		func() float64 { return float64(s.cache.Stats().Hits) })
	s.reg.CounterFunc("pchls_cache_misses_total", "result-cache misses",
		func() float64 { return float64(s.cache.Stats().Misses) })
	s.reg.CounterFunc("pchls_cache_coalesced_total", "requests deduplicated onto an in-flight identical computation",
		func() float64 { return float64(s.cache.Stats().Coalesced) })
	s.reg.CounterFunc("pchls_cache_evictions_total", "result-cache LRU evictions",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	s.reg.CounterFunc("pchls_cache_expirations_total", "result-cache TTL expirations",
		func() float64 { return float64(s.cache.Stats().Expirations) })
	s.reg.CounterFunc("pchls_cache_peer_hits_total", "result-cache misses served from a cluster peer's cache",
		func() float64 { return float64(s.cache.Stats().PeerHits) })
	s.reg.CounterFunc("pchls_cache_peer_misses_total", "peer probes that yielded nothing (computed locally)",
		func() float64 { return float64(s.cache.Stats().PeerMisses) })
	if pool := cfg.Pool; pool != nil {
		s.reg.GaugeFunc("pchls_cluster_workers", "workers registered with this coordinator",
			func() float64 { return float64(len(pool.Members())) })
		s.reg.CounterFunc("pchls_cluster_points_total", "grid points dispatched to workers successfully",
			func() float64 { return float64(pool.Stats().Points) })
		s.reg.CounterFunc("pchls_cluster_steals_total", "grid points stolen from another worker's queue",
			func() float64 { return float64(pool.Stats().Steals) })
		s.reg.CounterFunc("pchls_cluster_retries_total", "grid points re-dispatched after a failed attempt",
			func() float64 { return float64(pool.Stats().Retries) })
		s.reg.CounterFunc("pchls_cluster_failures_total", "failed point dispatch attempts",
			func() float64 { return float64(pool.Stats().Failures) })
	}

	s.mux.HandleFunc("POST /v1/synthesize", s.instrument("/v1/synthesize", handle(s, s.execSynthesize, writeResult)))
	s.mux.HandleFunc("POST /v1/portfolio", s.instrument("/v1/portfolio", handle(s, s.execPortfolio, writeResult)))
	s.mux.HandleFunc("POST /v1/sweep", s.instrument("/v1/sweep", handle(s, s.execSweep, writeResult)))
	s.mux.HandleFunc("POST /v1/surface", s.instrument("/v1/surface", handle(s, s.execSurface, writeResult)))
	s.mux.HandleFunc("POST /v1/pareto", s.instrument("/v1/pareto", handle(s, s.execPareto, writeResult)))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("/v1/batch", s.handleBatch))
	s.mux.HandleFunc("GET /v1/benchmarks", s.instrument("/v1/benchmarks", s.handleBenchmarks))
	if cfg.Worker {
		s.mux.HandleFunc("POST /cluster/point", s.instrument("/cluster/point", handle(s, s.execPoint, writePoint)))
		s.mux.HandleFunc("GET /cluster/cache", s.instrument("/cluster/cache", s.handleClusterCache))
	}
	if cfg.Pool != nil {
		s.mux.HandleFunc("POST /cluster/register", s.instrument("/cluster/register", s.handleClusterRegister))
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /metrics", s.reg.Handler())

	s.hs = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown; it blocks like
// http.Server.Serve and returns http.ErrServerClosed after a graceful
// drain.
func (s *Server) Serve(l net.Listener) error { return s.hs.Serve(l) }

// Shutdown gracefully drains the daemon: the listener closes immediately
// (new connections are refused), in-flight requests run to completion, and
// requests arriving on kept-alive connections are refused with 503.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	return s.hs.Shutdown(ctx)
}

// statusRecorder captures the response code for metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with body limiting, drain refusal, a request
// count labeled by path and status code, and a latency histogram labeled
// by endpoint.
func (s *Server) instrument(path string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.reg.Histogram("pchls_request_seconds", "request latency by endpoint", nil, obs.Label{Key: "endpoint", Value: path})
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(rec, r)
		hist.Observe(time.Since(start).Seconds())
		s.reg.Counter("pchls_http_requests_total", "requests served",
			obs.Label{Key: "path", Value: path},
			obs.Label{Key: "code", Value: strconv.Itoa(rec.status)}).Inc()
	}
}

// errOverloaded marks an admission rejection.
type overloadError struct{}

func (overloadError) Error() string { return "server overloaded: queue full" }

// acquire claims one of the Workers computation slots, waiting in the
// bounded queue. It fails fast with overloadError when the queue is full
// and with ctx.Err() when the request deadline fires first.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	if s.waiting.Add(1) > int64(s.cfg.Workers+s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		s.rejected.Inc()
		return nil, overloadError{}
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// validateDesign re-checks a freshly synthesized design with the
// independent validator when Config.Validate is set. A failure means the
// engine emitted a design violating the paper's invariants; it surfaces
// as a non-cacheable 500 so a buggy build can never poison the cache.
func (s *Server) validateDesign(d *core.Design) error {
	if !s.cfg.Validate {
		return nil
	}
	s.validations.Inc()
	if err := verify.Check(core.VerifyInput(d)); err != nil {
		s.validationFails.Inc()
		return fmt.Errorf("engine produced an invalid design: %w", err)
	}
	return nil
}

// noteStats folds one run's engine work counters into the global metrics.
func (s *Server) noteStats(st core.Stats) {
	s.engineRuns.Inc()
	s.schedulerRuns.Add(st.SchedulerRuns)
	s.incrementalRuns.Add(st.IncrementalRuns)
	s.windowHits.Add(st.WindowCacheHits)
	s.windowMisses.Add(st.WindowCacheMisses)
}
