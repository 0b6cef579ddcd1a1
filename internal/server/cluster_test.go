package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pchls/internal/bench"
	"pchls/internal/cache"
	"pchls/internal/cdfg"
	"pchls/internal/cluster"
	"pchls/internal/core"
	"pchls/internal/library"
)

// newTestCluster boots a coordinator fronting n in-process workers and
// returns the coordinator's base URL, its pool, and the worker servers.
func newTestCluster(t *testing.T, n int) (*cluster.Pool, *httptest.Server, []*httptest.Server) {
	t.Helper()
	var (
		urls    []string
		workers []*httptest.Server
	)
	for i := 0; i < n; i++ {
		_, ts := newTestServer(t, Config{Worker: true})
		workers = append(workers, ts)
		urls = append(urls, ts.URL)
	}
	pool := cluster.NewPool(cluster.PoolConfig{
		PerWorker:    2,
		PointTimeout: 30 * time.Second,
		ReviveAfter:  time.Minute,
	})
	pool.SetMembers(urls)
	_, coord := newTestServer(t, Config{Pool: pool})
	return pool, coord, workers
}

// requireSameResponse posts body to path on both servers and requires
// byte-identical (status, body) pairs.
func requireSameResponse(t *testing.T, path, body, clusterURL, soloURL string) {
	t.Helper()
	got := postJSON(t, clusterURL+path, body)
	gotBody := readBody(t, got)
	want := postJSON(t, soloURL+path, body)
	wantBody := readBody(t, want)
	if got.StatusCode != want.StatusCode {
		t.Fatalf("%s: cluster status %d, single-process status %d\ncluster body: %s", path, got.StatusCode, want.StatusCode, gotBody)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("%s: cluster response differs from single-process response\ncluster:  %s\nsolo:     %s", path, gotBody, wantBody)
	}
}

// TestClusterSurfaceByteIdentical is the acceptance test of the
// distributed path: every built-in benchmark's time-power surface,
// explored through a coordinator sharding cells over three workers, must
// be byte-identical to a single-process server's response.
func TestClusterSurfaceByteIdentical(t *testing.T) {
	pool, coord, _ := newTestCluster(t, 3)
	_, solo := newTestServer(t, Config{})

	for _, name := range benchmarkNames {
		// One deadline below the critical path exercises the infeasible
		// (422) leg of the point protocol alongside feasible cells.
		_, deadlines, powers := surfaceAxes(t, name)
		body := surfaceBody(name, deadlines, powers, true)
		requireSameResponse(t, "/v1/surface", body, coord.URL, solo.URL)
	}
	if pts := pool.Stats().Points; pts == 0 {
		t.Error("the coordinator answered every surface without dispatching a single point")
	}
}

// TestClusterSweepByteIdentical drives the full (non-single-pass) engine
// through the sharded sweep path and checks the coordinator's own result
// cache: the repeat request is a hit served without touching the fleet.
func TestClusterSweepByteIdentical(t *testing.T) {
	pool, coord, _ := newTestCluster(t, 3)
	_, solo := newTestServer(t, Config{})

	body := `{"benchmark":"hal","deadline":17,"power_min":5,"power_max":50,"step":5}`
	requireSameResponse(t, "/v1/sweep", body, coord.URL, solo.URL)

	dispatched := pool.Stats().Points
	if dispatched == 0 {
		t.Fatal("sweep dispatched no points")
	}
	resp := postJSON(t, coord.URL+"/v1/sweep", body)
	readBody(t, resp)
	if out := resp.Header.Get(headerCache); out != "hit" {
		t.Errorf("repeated sweep %s = %q, want hit", headerCache, out)
	}
	if pts := pool.Stats().Points; pts != dispatched {
		t.Errorf("cached sweep re-dispatched points (%d -> %d)", dispatched, pts)
	}
}

// TestClusterSynthesizeAndPortfolio covers the two non-grid routes: a
// single synthesize goes to its key's owner, a portfolio is proxied
// whole; both must answer byte-identically to a single-process server.
func TestClusterSynthesizeAndPortfolio(t *testing.T) {
	_, coord, _ := newTestCluster(t, 3)
	_, solo := newTestServer(t, Config{})

	requireSameResponse(t, "/v1/synthesize", `{"benchmark":"diffeq2","deadline":30,"power_max":15}`, coord.URL, solo.URL)
	// Deterministic infeasibility crosses the cluster as a 422 result.
	requireSameResponse(t, "/v1/synthesize", `{"benchmark":"hal","deadline":1}`, coord.URL, solo.URL)
	requireSameResponse(t, "/v1/portfolio", `{"benchmark":"hal","deadline":17,"power_max":20,"k":2,"budget":1,"seed":7}`, coord.URL, solo.URL)
	// Request errors never reach the fleet and must match too.
	requireSameResponse(t, "/v1/synthesize", `{"benchmark":"nope","deadline":10}`, coord.URL, solo.URL)
}

// TestClusterInlineGraphAndLibrary sends an inline graph and a custom
// library through the coordinator: both must reach the workers, or the
// grid fails (no graph) or the workers silently synthesize Table 1 (no
// library). The library is checked to matter: without it the same
// request answers differently.
func TestClusterInlineGraphAndLibrary(t *testing.T) {
	_, coord, _ := newTestCluster(t, 2)
	_, solo := newTestServer(t, Config{})

	const src = `"graph":{"name":"inline","nodes":[{"name":"i1","op":"imp"},{"name":"i2","op":"imp"},{"name":"i3","op":"imp"},` +
		`{"name":"m1","op":"*"},{"name":"m2","op":"*"},{"name":"a1","op":"+"},{"name":"m3","op":"*"},{"name":"a2","op":"+"}],` +
		`"edges":[{"from":"i1","to":"m1"},{"from":"i2","to":"m1"},{"from":"i2","to":"m2"},{"from":"i3","to":"m2"},` +
		`{"from":"m1","to":"a1"},{"from":"m2","to":"a1"},{"from":"a1","to":"m3"},{"from":"i1","to":"m3"},` +
		`{"from":"m3","to":"a2"},{"from":"i3","to":"a2"}]}`
	const lib = `"library":[{"name":"IN","ops":["imp"],"area":16,"delay":1,"power":0.2},{"name":"ADD","ops":["+"],"area":3,"delay":1,"power":2},` +
		`{"name":"MUL","ops":["*"],"area":50,"delay":2,"power":6}]`
	for _, tc := range []struct{ path, rest string }{
		{"/v1/synthesize", `"deadline":9,"power_max":12`},
		{"/v1/surface", `"deadlines":[6,7,10],"powers":[6.5,12,20]`},
		{"/v1/pareto", `"deadlines":[6,7,10],"powers":[6.5,12,20]`},
		{"/v1/portfolio", `"deadline":9,"power_max":12,"k":2,"budget":1`},
	} {
		body := "{" + src + "," + lib + "," + tc.rest + "}"
		requireSameResponse(t, tc.path, body, coord.URL, solo.URL)
		resp := postJSON(t, solo.URL+tc.path, body)
		if raw := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", tc.path, resp.StatusCode, raw)
		}
		withLib := readBody(t, postJSON(t, solo.URL+tc.path, body))
		table1 := readBody(t, postJSON(t, solo.URL+tc.path, "{"+src+","+tc.rest+"}"))
		if bytes.Equal(withLib, table1) {
			t.Fatalf("%s: the custom library answers like Table 1, so the test cannot tell it was forwarded: %s", tc.path, withLib)
		}
	}
}

// TestClusterNoWorkers pins the failure mode of an empty fleet: 503, not
// a hang or a fallback to local computation the coordinator cannot do.
func TestClusterNoWorkers(t *testing.T) {
	pool := cluster.NewPool(cluster.PoolConfig{})
	_, coord := newTestServer(t, Config{Pool: pool})
	resp := postJSON(t, coord.URL+"/v1/synthesize", `{"benchmark":"hal","deadline":17}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
}

// TestClusterSurvivesWorkerFailureMidSweep kills one worker after its
// first served point: the pool must mark it dead, re-dispatch its shard
// onto the survivors, and still assemble the byte-identical response.
func TestClusterSurvivesWorkerFailureMidSweep(t *testing.T) {
	var (
		urls   []string
		served atomic.Int64
		killed atomic.Int64
	)
	for i := 0; i < 3; i++ {
		s := New(Config{Worker: true})
		h := s.Handler()
		if i == 0 {
			// This worker dies after one point: every later request is
			// refused the way a crashed process would refuse it.
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if strings.HasPrefix(r.URL.Path, "/cluster/point") && served.Add(1) > 1 {
					killed.Add(1)
					http.Error(w, "worker killed", http.StatusInternalServerError)
					return
				}
				s.Handler().ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	pool := cluster.NewPool(cluster.PoolConfig{PerWorker: 2, PointTimeout: 30 * time.Second, ReviveAfter: time.Minute})
	pool.SetMembers(urls)
	_, coord := newTestServer(t, Config{Pool: pool})
	_, solo := newTestServer(t, Config{})

	body := `{"benchmark":"hal","deadlines":[10,17],"powers":[5,10,15,20,25,30,35,40]}`
	requireSameResponse(t, "/v1/surface", body, coord.URL, solo.URL)
	if killed.Load() > 0 && pool.Stats().Retries == 0 {
		t.Errorf("worker refused %d points but the pool recorded no retries", killed.Load())
	}
}

// TestClusterRegister exercises the coordinator's registration endpoint.
func TestClusterRegister(t *testing.T) {
	pool := cluster.NewPool(cluster.PoolConfig{})
	_, coord := newTestServer(t, Config{Pool: pool})

	resp := postJSON(t, coord.URL+"/cluster/register", `{"addr":"http://127.0.0.1:39999"}`)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register = %d (%s)", resp.StatusCode, body)
	}
	var reg cluster.RegisterResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatalf("decoding register response: %v", err)
	}
	if len(reg.Members) != 1 || reg.Members[0] != "http://127.0.0.1:39999" {
		t.Errorf("members = %v", reg.Members)
	}
	if got := pool.Members(); len(got) != 1 {
		t.Errorf("pool members = %v", got)
	}

	for _, bad := range []string{`{"addr":""}`, `{"addr":"not a url"}`, `{"addr":"/relative"}`} {
		resp := postJSON(t, coord.URL+"/cluster/register", bad)
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register %s = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestClusterPeerFill wires two workers into a cache-peer ring and
// checks the miss path: a key cached on its owner is served to the other
// worker as a peer fill ("peer" outcome), byte-identically.
func TestClusterPeerFill(t *testing.T) {
	peersA, peersB := cluster.NewPeers(), cluster.NewPeers()
	_, tsA := newTestServer(t, Config{Worker: true, Peers: peersA})
	_, tsB := newTestServer(t, Config{Worker: true, Peers: peersB})
	members := []string{tsA.URL, tsB.URL}
	peersA.Configure(tsA.URL, members)
	peersB.Configure(tsB.URL, members)

	// Address the request to its owner first so the non-owner's miss has
	// something to fetch.
	g, err := bench.ByName("hal")
	if err != nil {
		t.Fatal(err)
	}
	cons := core.Constraints{Deadline: 17, PowerMax: 20}
	key := cache.SynthesizeKey(g, library.Table1(), cons, false)
	owner, other := tsA.URL, tsB.URL
	if cluster.NewRing(members, 0).Owner(key) == tsB.URL {
		owner, other = tsB.URL, tsA.URL
	}

	const body = `{"benchmark":"hal","deadline":17,"power_max":20}`
	cold := postJSON(t, owner+"/v1/synthesize", body)
	coldBody := readBody(t, cold)
	if out := cold.Header.Get(headerCache); out != "miss" {
		t.Fatalf("owner's first request %s = %q, want miss", headerCache, out)
	}

	filled := postJSON(t, other+"/v1/synthesize", body)
	filledBody := readBody(t, filled)
	if out := filled.Header.Get(headerCache); out != "peer" {
		t.Fatalf("non-owner's miss %s = %q, want peer", headerCache, out)
	}
	if !bytes.Equal(coldBody, filledBody) {
		t.Error("peer-filled response differs from the owner's response")
	}

	// The fill populated the non-owner's local cache.
	warm := postJSON(t, other+"/v1/synthesize", body)
	readBody(t, warm)
	if out := warm.Header.Get(headerCache); out != "hit" {
		t.Errorf("repeat on the non-owner %s = %q, want hit", headerCache, out)
	}

	resp, err := http.Get(other + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := readBody(t, resp)
	if !strings.Contains(string(mbody), "pchls_cache_peer_hits_total 1") {
		t.Errorf("peer metrics missing from /metrics:\n%s", mbody)
	}
}

// TestEndpointLatencyHistogram asserts the per-endpoint latency
// histogram pchls_request_seconds{endpoint=...} appears on /metrics with
// one observation per served request.
func TestEndpointLatencyHistogram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	readBody(t, postJSON(t, ts.URL+"/v1/synthesize", `{"benchmark":"hal","deadline":17,"power_max":20}`))
	readBody(t, postJSON(t, ts.URL+"/v1/batch", `{"requests":[{"synthesize":{"benchmark":"hal","deadline":17,"power_max":20}}]}`))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readBody(t, resp))
	for _, want := range []string{
		`pchls_request_seconds_bucket{endpoint="/v1/synthesize",le="+Inf"} 1`,
		`pchls_request_seconds_count{endpoint="/v1/synthesize"} 1`,
		`pchls_request_seconds_count{endpoint="/v1/batch"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// batchResult mirrors batchItemJSON for decoding in tests.
type batchResult struct {
	Status int    `json:"status"`
	Cache  string `json:"cache"`
	Body   []byte `json:"body"`
}

// TestBatchMatchesIndividualResponses pins the batch contract: every
// item's (status, body) is byte-identical to the standalone endpoint's
// response, in input order, including request errors and 422s.
func TestBatchMatchesIndividualResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	items := []struct {
		kind, path, req string
	}{
		{"synthesize", "/v1/synthesize", `{"benchmark":"hal","deadline":17,"power_max":20}`},
		{"sweep", "/v1/sweep", `{"benchmark":"hal","deadline":17,"power_min":5,"power_max":20,"step":5,"single_pass":true}`},
		{"surface", "/v1/surface", `{"benchmark":"hal","deadlines":[10,17],"powers":[20,40],"single_pass":true}`},
		{"portfolio", "/v1/portfolio", `{"benchmark":"hal","deadline":17,"power_max":20,"k":2,"budget":1,"seed":3}`},
		{"synthesize", "/v1/synthesize", `{"benchmark":"hal","deadline":1}`},                              // deterministic 422
		{"synthesize", "/v1/synthesize", `{"benchmark":"nope","deadline":10}`},                            // request error 404/400
		{"sweep", "/v1/sweep", `{"benchmark":"hal","deadline":17,"power_min":50,"power_max":5,"step":5}`}, // invalid grid
	}

	type individual struct {
		status int
		body   []byte
	}
	want := make([]individual, len(items))
	for i, it := range items {
		resp := postJSON(t, ts.URL+it.path, it.req)
		want[i] = individual{status: resp.StatusCode, body: readBody(t, resp)}
	}

	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i, it := range items {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{%q:%s}`, it.kind, it.req)
	}
	sb.WriteString(`]}`)

	resp := postJSON(t, ts.URL+"/v1/batch", sb.String())
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d (%s)", resp.StatusCode, raw)
	}
	var out struct {
		Results []batchResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	if len(out.Results) != len(items) {
		t.Fatalf("batch returned %d results for %d requests", len(out.Results), len(items))
	}
	for i, got := range out.Results {
		if got.Status != want[i].status {
			t.Errorf("item %d (%s): batch status %d, standalone %d", i, items[i].path, got.Status, want[i].status)
		}
		if !bytes.Equal(got.Body, want[i].body) {
			t.Errorf("item %d (%s): batch body differs from standalone response\nbatch:      %s\nstandalone: %s",
				i, items[i].path, got.Body, want[i].body)
		}
	}
	// The batch ran after the standalone requests, so every successful
	// item was a cache hit — the batch path shares the standalone keys.
	if out.Results[0].Cache != "hit" {
		t.Errorf("item 0 cache = %q, want hit", out.Results[0].Cache)
	}

	// Base64 bodies survive a raw-JSON round trip: decoding the wire form
	// by hand must yield the same bytes as encoding/json's []byte path.
	var rawOut struct {
		Results []struct {
			Body string `json:"body"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &rawOut); err != nil {
		t.Fatalf("raw decode: %v", err)
	}
	decoded, err := base64.StdEncoding.DecodeString(rawOut.Results[0].Body)
	if err != nil {
		t.Fatalf("body is not base64: %v", err)
	}
	if !bytes.Equal(decoded, want[0].body) {
		t.Error("hand-decoded base64 body differs from the standalone response")
	}
}

// TestBatchValidation covers the batch envelope's own error paths.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"empty", `{"requests":[]}`},
		{"no kind", `{"requests":[{}]}`},
		{"two kinds", `{"requests":[{"synthesize":{"benchmark":"hal","deadline":17},"sweep":{"benchmark":"hal","deadline":17,"power_min":5,"power_max":20,"step":5}}]}`},
		{"not json", `nope`},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/batch", tc.body)
		readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}

	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i <= maxBatchRequests; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"synthesize":{"benchmark":"hal","deadline":17}}`)
	}
	sb.WriteString(`]}`)
	resp := postJSON(t, ts.URL+"/v1/batch", sb.String())
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status = %d, want 400", resp.StatusCode)
	}
}

// TestClusterBatchByteIdentical runs a mixed batch through the
// coordinator: every item must match the single-process standalone
// response, proving the batch and cluster layers compose.
func TestClusterBatchByteIdentical(t *testing.T) {
	_, coord, _ := newTestCluster(t, 3)
	_, solo := newTestServer(t, Config{})

	batch := `{"requests":[
		{"synthesize":{"benchmark":"hal","deadline":17,"power_max":20}},
		{"surface":{"benchmark":"diffeq2","deadlines":[20,30],"powers":[10,15],"single_pass":true}},
		{"synthesize":{"benchmark":"hal","deadline":1}}
	]}`
	requireSameResponse(t, "/v1/batch", batch, coord.URL, solo.URL)
}

// BenchmarkCluster measures how the coordinator scales a sweep across a
// worker fleet. Real single-pass synthesis of this grid is far too fast
// (microseconds per point) to expose dispatch parallelism on any machine,
// so each worker's engine is slowed by a fixed simulated service time;
// the lane then measures how well the coordinator overlaps that service
// time across workers. The benchmark fails when three workers are not at
// least clusterMinSpeedup times faster per sweep than one; the fleet
// workload of the benchmark/ harness A/B-gates the wall time of real
// sharded synthesis.
func BenchmarkCluster(b *testing.B) {
	const serviceTime = 20 * time.Millisecond
	perOp := map[int]time.Duration{}
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("workers%d", n), func(b *testing.B) {
			var urls []string
			for i := 0; i < n; i++ {
				ws := New(Config{Worker: true, Workers: 4})
				inner := ws.synth
				ws.synth = func(ctx context.Context, g *cdfg.Graph, lib *library.Library, cons core.Constraints, cfg core.Config, singlePass bool) (*core.Design, error) {
					time.Sleep(serviceTime)
					return inner(ctx, g, lib, cons, cfg, singlePass)
				}
				ts := httptest.NewServer(ws.Handler())
				defer ts.Close()
				urls = append(urls, ts.URL)
			}
			pool := cluster.NewPool(cluster.PoolConfig{PerWorker: 4, PointTimeout: 60 * time.Second})
			pool.SetMembers(urls)
			cs := New(Config{Pool: pool, Workers: 8})
			cts := httptest.NewServer(cs.Handler())
			defer cts.Close()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh power grid every iteration: every cell is a cold
				// key, so each iteration pays ten real dispatches (powers
				// 5..50 step 5) instead of replaying the coordinator cache.
				body := fmt.Sprintf(`{"benchmark":"hal","deadline":17,"power_min":%g,"power_max":50,"step":5,"single_pass":true}`,
					5+float64(i)/1e6)
				resp, err := http.Post(cts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("sweep status %d", resp.StatusCode)
				}
			}
			perOp[n] = b.Elapsed() / time.Duration(b.N)
		})
	}
	if one, three := perOp[1], perOp[3]; one > 0 && three > 0 {
		if speedup := float64(one) / float64(three); speedup < clusterMinSpeedup {
			b.Errorf("workers1/workers3 = %.2fx (%v / %v), below the %.1fx floor", speedup, one, three, clusterMinSpeedup)
		}
	}
}

// clusterMinSpeedup is the floor on BenchmarkCluster's workers1/workers3
// wall-time ratio: the simulated service time makes the ratio stable on
// shared machines (2.5x measured on a 2.1 GHz Xeon).
const clusterMinSpeedup = 1.8
