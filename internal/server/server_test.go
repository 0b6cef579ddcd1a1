package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
	"pchls/internal/core"
	"pchls/internal/library"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return b
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEndToEndSynthesize drives a real listener end to end: the served
// design JSON must be byte-identical to what the engine (and therefore
// the CLI's -json output) produces for the same inputs.
func TestEndToEndSynthesize(t *testing.T) {
	s := New(Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	cases := []struct {
		name     string
		deadline int
		power    float64
	}{
		{"hal", 17, 20},
		{"diffeq2", 30, 15},
	}
	for _, tc := range cases {
		body := fmt.Sprintf(`{"benchmark":%q,"deadline":%d,"power_max":%g}`, tc.name, tc.deadline, tc.power)
		resp := postJSON(t, base+"/v1/synthesize", body)
		got := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", tc.name, resp.StatusCode, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", tc.name, ct)
		}
		if out := resp.Header.Get(headerCache); out != "miss" {
			t.Errorf("%s: %s = %q, want miss", tc.name, headerCache, out)
		}

		g, err := bench.ByName(tc.name)
		if err != nil {
			t.Fatalf("bench.ByName(%q): %v", tc.name, err)
		}
		d, err := core.SynthesizeBestContext(context.Background(), g, library.Table1(),
			core.Constraints{Deadline: tc.deadline, PowerMax: tc.power}, core.Config{Workers: 1})
		if err != nil {
			t.Fatalf("engine synthesis of %s: %v", tc.name, err)
		}
		want, err := d.JSON()
		if err != nil {
			t.Fatalf("d.JSON(): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: served JSON differs from engine JSON (%d vs %d bytes)", tc.name, len(got), len(want))
		}
	}

	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestWarmCacheSkipsSynthesis repeats a request and requires the second
// response to come straight from the cache: zero engine runs, the same
// bytes, and no second call into the synthesis hook.
func TestWarmCacheSkipsSynthesis(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var calls atomic.Int64
	inner := s.synth
	s.synth = func(ctx context.Context, g *cdfg.Graph, lib *library.Library, cons core.Constraints, cfg core.Config, singlePass bool) (*core.Design, error) {
		calls.Add(1)
		return inner(ctx, g, lib, cons, cfg, singlePass)
	}

	const body = `{"benchmark":"hal","deadline":17,"power_max":20}`
	cold := postJSON(t, ts.URL+"/v1/synthesize", body)
	coldBytes := readBody(t, cold)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status = %d, body %s", cold.StatusCode, coldBytes)
	}
	if out := cold.Header.Get(headerCache); out != "miss" {
		t.Fatalf("cold %s = %q, want miss", headerCache, out)
	}
	if runs := cold.Header.Get(headerSchedulerRuns); runs == "0" || runs == "" {
		t.Fatalf("cold %s = %q, want > 0", headerSchedulerRuns, runs)
	}

	warm := postJSON(t, ts.URL+"/v1/synthesize", body)
	warmBytes := readBody(t, warm)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm status = %d", warm.StatusCode)
	}
	if out := warm.Header.Get(headerCache); out != "hit" {
		t.Errorf("warm %s = %q, want hit", headerCache, out)
	}
	if runs := warm.Header.Get(headerSchedulerRuns); runs != "0" {
		t.Errorf("warm %s = %q, want 0 (cache hits perform no synthesis)", headerSchedulerRuns, runs)
	}
	if runs := warm.Header.Get(headerIncrementalRuns); runs != "0" {
		t.Errorf("warm %s = %q, want 0", headerIncrementalRuns, runs)
	}
	if !bytes.Equal(coldBytes, warmBytes) {
		t.Errorf("warm body differs from cold body (%d vs %d bytes)", len(warmBytes), len(coldBytes))
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("synthesis hook called %d times, want 1", n)
	}

	metrics := string(readBody(t, postGet(t, ts.URL+"/metrics")))
	for _, want := range []string{
		"pchls_cache_hits_total 1",
		"pchls_cache_misses_total 1",
		"pchls_engine_synth_total 1",
		`pchls_http_requests_total{code="200",path="/v1/synthesize"} 2`,
		`pchls_request_seconds_count{endpoint="/v1/synthesize"} 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func postGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return resp
}

// TestSingleflightConcurrentIdenticalRequests holds the one real
// synthesis open while identical requests pile up, then verifies exactly
// one engine run served every response.
func TestSingleflightConcurrentIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	var calls atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	inner := s.synth
	s.synth = func(ctx context.Context, g *cdfg.Graph, lib *library.Library, cons core.Constraints, cfg core.Config, singlePass bool) (*core.Design, error) {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return inner(ctx, g, lib, cons, cfg, singlePass)
	}

	const body = `{"benchmark":"hal","deadline":17,"power_max":20}`
	const followers = 7
	type reply struct {
		status  int
		outcome string
		runs    string
		body    []byte
	}
	results := make(chan reply, followers+1)
	post := func() {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json", strings.NewReader(body))
		if err != nil {
			results <- reply{status: -1}
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		results <- reply{
			status:  resp.StatusCode,
			outcome: resp.Header.Get(headerCache),
			runs:    resp.Header.Get(headerSchedulerRuns),
			body:    b,
		}
	}

	go post() // leader: registers the flight, then blocks in synth
	<-entered
	for i := 0; i < followers; i++ {
		go post()
	}
	waitFor(t, "followers to coalesce", func() bool { return s.cache.Stats().Coalesced >= followers })
	close(release)

	var miss, coalesced int
	var first []byte
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("response %d: status = %d", i, r.status)
		}
		switch r.outcome {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		default:
			t.Errorf("response %d: %s = %q", i, headerCache, r.outcome)
		}
		if r.runs == "0" || r.runs == "" {
			t.Errorf("response %d: %s = %q, want the leader's run count", i, headerSchedulerRuns, r.runs)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Errorf("response %d: body differs from first response", i)
		}
	}
	if miss != 1 || coalesced != followers {
		t.Errorf("outcomes: %d miss + %d coalesced, want 1 + %d", miss, coalesced, followers)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("synthesis hook called %d times, want 1", n)
	}

	metrics := string(readBody(t, postGet(t, ts.URL+"/metrics")))
	if !strings.Contains(metrics, "pchls_engine_synth_total 1") {
		t.Errorf("/metrics: engine ran more than once under singleflight")
	}
	if !strings.Contains(metrics, fmt.Sprintf("pchls_cache_coalesced_total %d", followers)) {
		t.Errorf("/metrics missing pchls_cache_coalesced_total %d", followers)
	}
}

// TestGracefulShutdown starts a real listener, parks one request inside
// synthesis, initiates Shutdown, and requires the in-flight request to
// complete while new ones are refused.
func TestGracefulShutdown(t *testing.T) {
	s := New(Config{})
	entered := make(chan struct{})
	release := make(chan struct{})
	inner := s.synth
	var calls atomic.Int64
	s.synth = func(ctx context.Context, g *cdfg.Graph, lib *library.Library, cons core.Constraints, cfg core.Config, singlePass bool) (*core.Design, error) {
		if calls.Add(1) == 1 {
			close(entered)
		}
		<-release
		return inner(ctx, g, lib, cons, cfg, singlePass)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	inflight := make(chan reply1, 1)
	go func() {
		resp, err := http.Post(base+"/v1/synthesize", "application/json",
			strings.NewReader(`{"benchmark":"hal","deadline":17,"power_max":20}`))
		if err != nil {
			inflight <- reply1{err: err}
			return
		}
		defer resp.Body.Close()
		_, _ = io.ReadAll(resp.Body)
		inflight <- reply1{status: resp.StatusCode}
	}()
	<-entered

	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(context.Background()) }()
	waitFor(t, "drain flag", func() bool { return s.draining.Load() })

	// A draining server refuses new work on surviving connections...
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/synthesize",
		strings.NewReader(`{"benchmark":"hal","deadline":10}`)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining synthesize status = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status = %d, want 503", rec.Code)
	}
	// ...and stops accepting new connections once Shutdown closes the
	// listener.
	waitFor(t, "listener to close", func() bool {
		conn, err := net.DialTimeout("tcp", l.Addr().String(), time.Second)
		if err != nil {
			return true
		}
		conn.Close()
		return false
	})

	close(release)
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Errorf("in-flight request status = %d, want 200", r.status)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

type reply1 struct {
	status int
	err    error
}

// TestOverloadRejects fills every worker slot and queue position with
// gated requests, then requires the next distinct request to bounce with
// 429 immediately.
func TestOverloadRejects(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	inner := s.synth
	s.synth = func(ctx context.Context, g *cdfg.Graph, lib *library.Library, cons core.Constraints, cfg core.Config, singlePass bool) (*core.Design, error) {
		entered <- struct{}{}
		<-release
		return inner(ctx, g, lib, cons, cfg, singlePass)
	}
	post := func(deadline int, out chan<- int) {
		resp, err := http.Post(ts.URL+"/v1/synthesize", "application/json",
			strings.NewReader(fmt.Sprintf(`{"benchmark":"hal","deadline":%d,"power_max":20}`, deadline)))
		if err != nil {
			out <- -1
			return
		}
		_, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		out <- resp.StatusCode
	}

	admitted := make(chan int, 3)
	go post(17, admitted) // occupies the single worker slot
	<-entered
	go post(18, admitted) // waits in the queue
	go post(19, admitted) // waits at the admission bound
	waitFor(t, "queue to fill", func() bool { return s.waiting.Load() == 2 })

	rejected := make(chan int, 1)
	post(20, rejected) // beyond Workers+QueueDepth: rejected immediately
	if code := <-rejected; code != http.StatusTooManyRequests {
		t.Fatalf("over-admission request status = %d, want 429", code)
	}

	close(release)
	for i := 0; i < 3; i++ {
		if code := <-admitted; code != http.StatusOK {
			t.Errorf("admitted request %d status = %d, want 200", i, code)
		}
	}
	metrics := string(readBody(t, postGet(t, ts.URL+"/metrics")))
	if !strings.Contains(metrics, "pchls_admission_rejected_total 1") {
		t.Errorf("/metrics missing pchls_admission_rejected_total 1")
	}
}

// TestRequestTimeout verifies that a synthesis outliving the per-request
// deadline maps to 503 and is not cached.
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{RequestTimeout: 20 * time.Millisecond})
	s.synth = func(ctx context.Context, g *cdfg.Graph, lib *library.Library, cons core.Constraints, cfg core.Config, singlePass bool) (*core.Design, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	resp := postJSON(t, ts.URL+"/v1/synthesize", `{"benchmark":"hal","deadline":17}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request status = %d, want 503", resp.StatusCode)
	}
	if st := s.cache.Stats(); st.Entries != 0 {
		t.Errorf("timeout result was cached: %d entries", st.Entries)
	}
}

// TestInfeasibleCached verifies that deterministic infeasibility is a
// cacheable 422: the second identical request is a hit.
func TestInfeasibleCached(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"benchmark":"hal","deadline":1}`
	first := postJSON(t, ts.URL+"/v1/synthesize", body)
	firstBytes := readBody(t, first)
	if first.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible status = %d, want 422 (body %s)", first.StatusCode, firstBytes)
	}
	second := postJSON(t, ts.URL+"/v1/synthesize", body)
	secondBytes := readBody(t, second)
	if second.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("repeat infeasible status = %d, want 422", second.StatusCode)
	}
	if out := second.Header.Get(headerCache); out != "hit" {
		t.Errorf("repeat infeasible %s = %q, want hit", headerCache, out)
	}
	if !bytes.Equal(firstBytes, secondBytes) {
		t.Errorf("cached infeasible body differs")
	}
}

// TestBenchmarkAndInlineGraphShareCacheEntry posts hal by name and then
// as an inline graph: the content-addressed key must treat them as the
// same design.
func TestBenchmarkAndInlineGraphShareCacheEntry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	byName := postJSON(t, ts.URL+"/v1/synthesize", `{"benchmark":"hal","deadline":17,"power_max":20}`)
	nameBytes := readBody(t, byName)
	if byName.StatusCode != http.StatusOK {
		t.Fatalf("by-name status = %d", byName.StatusCode)
	}

	g, err := bench.ByName("hal")
	if err != nil {
		t.Fatal(err)
	}
	graphJSON, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	inline := postJSON(t, ts.URL+"/v1/synthesize",
		fmt.Sprintf(`{"graph":%s,"deadline":17,"power_max":20}`, graphJSON))
	inlineBytes := readBody(t, inline)
	if inline.StatusCode != http.StatusOK {
		t.Fatalf("inline status = %d, body %s", inline.StatusCode, inlineBytes)
	}
	if out := inline.Header.Get(headerCache); out != "hit" {
		t.Errorf("inline-graph request %s = %q, want hit (same content address)", headerCache, out)
	}
	if !bytes.Equal(nameBytes, inlineBytes) {
		t.Errorf("inline-graph body differs from by-name body")
	}
	if st := s.cache.Stats(); st.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", st.Entries)
	}
}

// TestBadRequests maps malformed payloads to client errors.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"not json", "/v1/synthesize", `{`, http.StatusBadRequest},
		{"unknown field", "/v1/synthesize", `{"benchmark":"hal","deadline":17,"bogus":1}`, http.StatusBadRequest},
		{"trailing data", "/v1/synthesize", `{"benchmark":"hal","deadline":17}{}`, http.StatusBadRequest},
		{"no graph source", "/v1/synthesize", `{"deadline":17}`, http.StatusBadRequest},
		{"two graph sources", "/v1/synthesize", `{"benchmark":"hal","graph":{"name":"g","nodes":[{"name":"a","op":"+"}]},"deadline":17}`, http.StatusBadRequest},
		{"unknown benchmark", "/v1/synthesize", `{"benchmark":"nope","deadline":17}`, http.StatusBadRequest},
		{"zero deadline", "/v1/synthesize", `{"benchmark":"hal","deadline":0}`, http.StatusBadRequest},
		{"negative power", "/v1/synthesize", `{"benchmark":"hal","deadline":17,"power_max":-1}`, http.StatusBadRequest},
		{"nan power", "/v1/synthesize", `{"benchmark":"hal","deadline":17,"power_max":"x"}`, http.StatusBadRequest},
		{"unknown op", "/v1/synthesize", `{"graph":{"name":"g","nodes":[{"name":"a","op":"%"}]},"deadline":17}`, http.StatusBadRequest},
		{"cyclic graph", "/v1/synthesize", `{"graph":{"name":"g","nodes":[{"name":"a","op":"+"},{"name":"b","op":"+"}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"}]},"deadline":17}`, http.StatusBadRequest},
		{"bad library", "/v1/synthesize", `{"benchmark":"hal","library":[{"name":"m","ops":["+"],"area":1,"delay":0,"power":1}],"deadline":17}`, http.StatusBadRequest},
		{"sweep zero step", "/v1/sweep", `{"benchmark":"hal","deadline":17,"power_min":5,"power_max":50,"step":0}`, http.StatusBadRequest},
		{"sweep inverted grid", "/v1/sweep", `{"benchmark":"hal","deadline":17,"power_min":50,"power_max":5,"step":5}`, http.StatusBadRequest},
		{"surface empty grid", "/v1/surface", `{"benchmark":"hal","deadlines":[],"powers":[20]}`, http.StatusBadRequest},
		{"surface bad deadline", "/v1/surface", `{"benchmark":"hal","deadlines":[0],"powers":[20]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+tc.path, tc.body)
			b := readBody(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, tc.status, b)
			}
			var e errorJSON
			if err := json.Unmarshal(b, &e); err != nil || e.Error == "" {
				t.Errorf("error body %q is not {\"error\":...}", b)
			}
		})
	}

	t.Run("oversized body", func(t *testing.T) {
		_, small := newTestServer(t, Config{MaxBodyBytes: 64})
		resp := postJSON(t, small.URL+"/v1/synthesize",
			`{"benchmark":"hal","deadline":17,"power_max":20.000000000000000000001}`)
		readBody(t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized status = %d, want 413", resp.StatusCode)
		}
	})
	t.Run("wrong method", func(t *testing.T) {
		resp := postGet(t, ts.URL+"/v1/synthesize")
		readBody(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET synthesize status = %d, want 405", resp.StatusCode)
		}
	})
}

// TestSweepAndSurface smoke-tests the exploration endpoints including
// their warm-cache path.
// TestSweepGridCap sizes a sweep grid by the inclusive rule the sweep
// itself materializes: [0, 4096] at step 1 holds 4097 samples, one over
// maxGridPoints. A grid whose accumulating sum cannot advance (step below
// the spacing of floats at power_min) is unbounded and rejected too.
func TestSweepGridCap(t *testing.T) {
	for _, tc := range []struct {
		name           string
		min, max, step float64
		ok             bool
	}{
		{"at cap", 0, maxGridPoints - 1, 1, true},
		{"one over cap", 0, maxGridPoints, 1, false},
		{"stalled sum", 1e17, 1e17, 2.5, false},
	} {
		req := sweepRequest{Benchmark: "hal", Deadline: 17, PowerMin: tc.min, PowerMax: tc.max, Step: tc.step}
		_, _, err := req.validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !isRequestError(err) {
			t.Errorf("%s: err = %v, want a request error (400)", tc.name, err)
		}
	}
}

func TestSweepAndSurface(t *testing.T) {
	_, ts := newTestServer(t, Config{ExploreWorkers: 2})

	sweepBody := `{"benchmark":"hal","deadline":17,"power_min":10,"power_max":30,"step":10}`
	resp := postJSON(t, ts.URL+"/v1/sweep", sweepBody)
	cold := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status = %d, body %s", resp.StatusCode, cold)
	}
	var curve curveJSON
	if err := json.Unmarshal(cold, &curve); err != nil {
		t.Fatalf("sweep body: %v", err)
	}
	if curve.Benchmark != "hal" || len(curve.Points) != 3 {
		t.Errorf("sweep curve = %q with %d points, want hal with 3", curve.Benchmark, len(curve.Points))
	}
	if curve.TotalStats.SchedulerRuns == 0 {
		t.Errorf("sweep total_stats.scheduler_runs = 0, want > 0")
	}
	warm := postJSON(t, ts.URL+"/v1/sweep", sweepBody)
	warmBytes := readBody(t, warm)
	if out := warm.Header.Get(headerCache); out != "hit" {
		t.Errorf("warm sweep %s = %q, want hit", headerCache, out)
	}
	if !bytes.Equal(cold, warmBytes) {
		t.Errorf("warm sweep body differs from cold")
	}

	resp = postJSON(t, ts.URL+"/v1/surface", `{"benchmark":"hal","deadlines":[10,17],"powers":[20,40]}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("surface status = %d, body %s", resp.StatusCode, body)
	}
	var surf surfaceJSON
	if err := json.Unmarshal(body, &surf); err != nil {
		t.Fatalf("surface body: %v", err)
	}
	if len(surf.Points) != 4 {
		t.Errorf("surface points = %d, want 4", len(surf.Points))
	}
}

// TestBenchmarksEndpoint lists the built-in CDFG catalogue.
func TestBenchmarksEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postGet(t, ts.URL+"/v1/benchmarks")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("benchmarks status = %d", resp.StatusCode)
	}
	var list []benchmarkJSON
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("benchmarks body: %v", err)
	}
	if len(list) != len(benchmarkNames) {
		t.Fatalf("benchmarks = %d entries, want %d", len(list), len(benchmarkNames))
	}
	for i, b := range list {
		if b.Name != benchmarkNames[i] {
			t.Errorf("benchmark %d = %q, want %q", i, b.Name, benchmarkNames[i])
		}
		if b.Nodes == 0 || b.Graph == nil {
			t.Errorf("benchmark %q has no graph payload", b.Name)
		}
	}
}

// TestHealthz covers the liveness probe.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postGet(t, ts.URL+"/healthz")
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}
}

// BenchmarkServerSynthesize measures a synthesize round-trip through the
// full handler stack, cold (fresh cache every iteration) versus warm
// (every iteration after the first is a cache hit).
func BenchmarkServerSynthesize(b *testing.B) {
	const body = `{"benchmark":"hal","deadline":17,"power_max":20}`
	post := func(b *testing.B, s *Server) int {
		req := httptest.NewRequest("POST", "/v1/synthesize", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status = %d", rec.Code)
		}
		return rec.Body.Len()
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			post(b, New(Config{}))
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		s := New(Config{})
		post(b, s) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, s)
		}
	})
}
