package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ErrNoWorkers is returned when a coordinator operation finds no live
// worker to dispatch to; the server maps it to 503.
var ErrNoWorkers = errors.New("cluster: no live workers")

// statusError is a non-2xx worker response that is not a cacheable
// result (the point protocol folds 422 into CachedResult).
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("cluster: worker returned %d: %s", e.code, e.msg)
}

// PoolConfig tunes a worker pool.
type PoolConfig struct {
	// PerWorker is the number of points dispatched concurrently to each
	// worker (<= 0: 2). Match it to the workers' own -workers admission
	// slots; dispatching wider than a worker admits only earns 429s.
	PerWorker int
	// PointTimeout bounds one point attempt on one worker (<= 0: 60s).
	// After it fires the point is retried on a different worker.
	PointTimeout time.Duration
	// ReviveAfter is the probation period for a worker marked dead after
	// a transport failure (<= 0: 5s); afterwards it is probed again.
	ReviveAfter time.Duration
	// Client is the HTTP client used for dispatch (nil: a shared default
	// with idle-connection reuse).
	Client *http.Client
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.PerWorker <= 0 {
		c.PerWorker = 2
	}
	if c.PointTimeout <= 0 {
		c.PointTimeout = 60 * time.Second
	}
	if c.ReviveAfter <= 0 {
		c.ReviveAfter = 5 * time.Second
	}
	return c
}

// PoolStats is a snapshot of the pool's dispatch counters.
type PoolStats struct {
	// Points counts point dispatches that completed successfully.
	Points int64
	// Steals counts points an idle worker pulled from another worker's
	// queue (straggler mitigation).
	Steals int64
	// Retries counts points re-dispatched after a failed attempt.
	Retries int64
	// Failures counts failed point attempts (transport errors, timeouts,
	// 5xx, worker overload).
	Failures int64
}

// Pool is a coordinator's handle on the worker fleet: the membership
// ring, per-worker health, and the dispatch scheduler. Points are
// assigned to the worker owning their content address (so each worker's
// result cache stays hot for its shard), idle workers steal unclaimed
// points from the longest remaining queue, and a point whose worker
// fails or times out is retried on a different worker. Construct with
// NewPool; all methods are safe for concurrent use.
type Pool struct {
	cfg PoolConfig

	mu        sync.Mutex
	members   []string
	ring      *Ring
	deadUntil map[string]time.Time

	points, steals, retries, failures atomic.Int64
}

// NewPool returns an empty pool; SetMembers or Add installs workers.
func NewPool(cfg PoolConfig) *Pool {
	return &Pool{cfg: cfg.withDefaults(), ring: NewRing(nil, 0), deadUntil: map[string]time.Time{}}
}

// SetMembers replaces the worker membership.
func (p *Pool) SetMembers(addrs []string) {
	r := NewRing(addrs, 0)
	p.mu.Lock()
	p.members, p.ring = r.Members(), r
	p.mu.Unlock()
}

// Add registers one worker address, reporting whether it was new.
func (p *Pool) Add(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.members {
		if m == addr {
			return false
		}
	}
	r := NewRing(append(append([]string(nil), p.members...), addr), 0)
	p.members, p.ring = r.Members(), r
	delete(p.deadUntil, addr)
	return true
}

// Members returns the registered worker addresses in sorted order.
func (p *Pool) Members() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.members...)
}

// Stats returns a snapshot of the dispatch counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Points:   p.points.Load(),
		Steals:   p.steals.Load(),
		Retries:  p.retries.Load(),
		Failures: p.failures.Load(),
	}
}

// live returns the current ring and the members not under dead-probation.
func (p *Pool) live() (*Ring, []string) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	alive := make([]string, 0, len(p.members))
	for _, m := range p.members {
		if until, dead := p.deadUntil[m]; !dead || now.After(until) {
			alive = append(alive, m)
		}
	}
	return p.ring, alive
}

// markDead puts a worker under probation after a transport failure.
func (p *Pool) markDead(addr string) {
	p.mu.Lock()
	p.deadUntil[addr] = time.Now().Add(p.cfg.ReviveAfter)
	p.mu.Unlock()
}

func (p *Pool) client() *http.Client {
	if p.cfg.Client != nil {
		return p.cfg.Client
	}
	return defaultClient
}

// postJSON sends one cluster-internal POST and decodes a JSON response
// into out. Non-2xx statuses come back as *statusError.
func (p *Pool) postJSON(ctx context.Context, addr, path string, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.PointTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{code: resp.StatusCode, msg: string(bytes.TrimSpace(raw))}
	}
	return json.Unmarshal(raw, out)
}

// pointOnce dispatches one point to one worker.
func (p *Pool) pointOnce(ctx context.Context, addr string, req PointRequest) (PointResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return PointResponse{}, err
	}
	var resp PointResponse
	if err := p.postJSON(ctx, addr, "/cluster/point", body, &resp); err != nil {
		return PointResponse{}, err
	}
	return resp, nil
}

// retryable reports whether a failed attempt should move to another
// worker (transport errors, timeouts, 5xx, overload) as opposed to a
// deterministic protocol fault (4xx other than 429) that would fail
// identically everywhere.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code == http.StatusTooManyRequests || se.code >= 500
	}
	// Transport-level failure (connection refused, reset, timeout).
	return true
}

// fatalToWorker reports whether the failure indicts the worker itself
// (mark it dead) rather than momentary overload.
func fatalToWorker(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	return true // transport failure
}

// Point evaluates one point with shard affinity: the owner of key is
// tried first, then the ring's failover sequence. Dead workers are
// skipped while under probation.
func (p *Pool) Point(ctx context.Context, key string, req PointRequest) (PointResponse, error) {
	ring, alive := p.live()
	if len(alive) == 0 {
		return PointResponse{}, ErrNoWorkers
	}
	liveSet := make(map[string]bool, len(alive))
	for _, m := range alive {
		liveSet[m] = true
	}
	var lastErr error
	tried := 0
	for _, addr := range ring.Owners(key, ring.Len()) {
		if !liveSet[addr] {
			continue
		}
		if tried++; tried > 1 {
			p.retries.Add(1)
		}
		resp, err := p.pointOnce(ctx, addr, req)
		if err == nil {
			p.points.Add(1)
			return resp, nil
		}
		p.failures.Add(1)
		lastErr = err
		if ctx.Err() != nil {
			return PointResponse{}, ctx.Err()
		}
		if !retryable(err) {
			return PointResponse{}, err
		}
		if fatalToWorker(err) {
			p.markDead(addr)
		}
	}
	if lastErr == nil {
		return PointResponse{}, ErrNoWorkers
	}
	return PointResponse{}, lastErr
}

// Proxy forwards a whole /v1 request to the worker owning key and
// returns the worker's status and body verbatim, with the same failover
// sequence as Point. It carries endpoints whose computation cannot be
// decomposed into points (the portfolio).
func (p *Pool) Proxy(ctx context.Context, key, path string, body []byte) (int, []byte, error) {
	ring, alive := p.live()
	if len(alive) == 0 {
		return 0, nil, ErrNoWorkers
	}
	liveSet := make(map[string]bool, len(alive))
	for _, m := range alive {
		liveSet[m] = true
	}
	var lastErr error
	tried := 0
	for _, addr := range ring.Owners(key, ring.Len()) {
		if !liveSet[addr] {
			continue
		}
		if tried++; tried > 1 {
			p.retries.Add(1)
		}
		status, respBody, err := p.proxyOnce(ctx, addr, path, body)
		if err == nil {
			return status, respBody, nil
		}
		p.failures.Add(1)
		lastErr = err
		if ctx.Err() != nil {
			return 0, nil, ctx.Err()
		}
		p.markDead(addr)
	}
	return 0, nil, lastErr
}

// proxyOnce forwards to one worker. Unlike postJSON, every HTTP status
// is a valid answer (the proxied endpoint's own 4xx/5xx semantics);
// only transport failures are errors.
func (p *Pool) proxyOnce(ctx context.Context, addr, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, p.cfg.PointTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}
