package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pchls/internal/core"
)

// --- ring ---

func TestRingDeterministicAcrossMemberOrder(t *testing.T) {
	a := NewRing([]string{"http://a", "http://b", "http://c"}, 0)
	b := NewRing([]string{"http://c", "http://a", "http://b", "http://a"}, 0)
	if a.Len() != 3 || b.Len() != 3 {
		t.Fatalf("Len = %d, %d, want 3 (duplicates collapsed)", a.Len(), b.Len())
	}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		if ao, bo := a.Owner(key), b.Owner(key); ao != bo {
			t.Fatalf("Owner(%q) differs across construction orders: %q vs %q", key, ao, bo)
		}
	}
}

func TestRingOwnersFailoverSequence(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	r := NewRing(members, 0)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		owners := r.Owners(key, 10) // n beyond Len caps at Len
		if len(owners) != 3 {
			t.Fatalf("Owners(%q, 10) = %v, want all 3 members", key, owners)
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%q) repeats %q: %v", key, o, owners)
			}
			seen[o] = true
		}
		if owners[0] != r.Owner(key) {
			t.Fatalf("Owners(%q)[0] = %q, Owner = %q", key, owners[0], r.Owner(key))
		}
	}
}

func TestRingDistribution(t *testing.T) {
	members := []string{"http://a", "http://b", "http://c"}
	r := NewRing(members, 0)
	counts := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		counts[r.Owner(fmt.Sprintf("key-%d", i))]++
	}
	for _, m := range members {
		if counts[m] < n/10 {
			t.Errorf("member %s owns only %d/%d keys; ring is badly unbalanced", m, counts[m], n)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewRing(nil, 0)
	if got := r.Owner("k"); got != "" {
		t.Errorf("empty ring Owner = %q, want \"\"", got)
	}
	if got := r.Owners("k", 3); got != nil {
		t.Errorf("empty ring Owners = %v, want nil", got)
	}
}

// --- fake workers ---

// fakePointWorker is an in-process stand-in for a worker daemon's
// /cluster/point endpoint. Its responses encode which worker answered
// and which point it was asked for, so tests can verify index-ordered
// assembly without running the engine.
type fakePointWorker struct {
	id     string
	served atomic.Int64
	// intercept, when non-nil, may answer the request itself (return
	// true); otherwise the default success response is written.
	intercept func(w http.ResponseWriter, req PointRequest) bool
	ts        *httptest.Server
}

func newFakePointWorker(t *testing.T, id string) *fakePointWorker {
	t.Helper()
	fw := &fakePointWorker{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/point", func(w http.ResponseWriter, r *http.Request) {
		var req PointRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fw.served.Add(1)
		if fw.intercept != nil && fw.intercept(w, req) {
			return
		}
		resp := PointResponse{
			CachedResult: CachedResult{
				Status: http.StatusOK,
				Body:   []byte(fw.id + ":" + strconv.Itoa(req.Deadline)),
			},
			Cache: "miss",
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(resp)
	})
	fw.ts = httptest.NewServer(mux)
	t.Cleanup(fw.ts.Close)
	return fw
}

func workerURLs(ws []*fakePointWorker) []string {
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.ts.URL
	}
	return urls
}

// gridOf builds n points whose deadline doubles as the point's identity.
func gridOf(n int) ([]string, []PointRequest) {
	keys := make([]string, n)
	reqs := make([]PointRequest, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("key-%d", i)
		reqs[i] = PointRequest{Benchmark: "hal", Deadline: i + 1, PowerMax: 20}
	}
	return keys, reqs
}

// checkOrdered verifies every result landed at the index of the point
// that produced it, regardless of which worker evaluated it.
func checkOrdered(t *testing.T, resps []PointResponse) {
	t.Helper()
	for i, resp := range resps {
		body := string(resp.Body)
		idx := strings.LastIndex(body, ":")
		if idx < 0 || body[idx+1:] != strconv.Itoa(i+1) {
			t.Fatalf("result %d = %q, want a body for deadline %d", i, body, i+1)
		}
		if resp.Status != http.StatusOK {
			t.Fatalf("result %d status = %d", i, resp.Status)
		}
	}
}

// --- MapPoints ---

func TestMapPointsOrderedAcrossWorkers(t *testing.T) {
	ws := []*fakePointWorker{
		newFakePointWorker(t, "w0"),
		newFakePointWorker(t, "w1"),
		newFakePointWorker(t, "w2"),
	}
	// Every request is held until all three workers have received one.
	// A held dispatcher cannot finish its own queue and steal, so a
	// worker that starts late still finds points left to serve: the
	// served check below tests sharding, not scheduling luck.
	all := make(chan struct{})
	var waiting atomic.Int32
	waiting.Store(int32(len(ws)))
	for _, w := range ws {
		var first sync.Once
		w.intercept = func(http.ResponseWriter, PointRequest) bool {
			first.Do(func() {
				if waiting.Add(-1) == 0 {
					close(all)
				}
			})
			select {
			case <-all:
			case <-time.After(5 * time.Second):
				t.Errorf("worker %s: not every worker received a request within 5s", w.id)
			}
			return false
		}
	}
	pool := NewPool(PoolConfig{PerWorker: 2, PointTimeout: 10 * time.Second})
	pool.SetMembers(workerURLs(ws))

	keys, reqs := gridOf(60)
	resps, err := pool.MapPoints(context.Background(), keys, reqs)
	if err != nil {
		t.Fatalf("MapPoints: %v", err)
	}
	checkOrdered(t, resps)
	if got := pool.Stats().Points; got != 60 {
		t.Errorf("Points = %d, want 60", got)
	}
	for _, w := range ws {
		if w.served.Load() == 0 {
			t.Errorf("worker %s served no points; sharding or stealing is broken", w.id)
		}
	}
}

func TestMapPointsEmptyAndMismatch(t *testing.T) {
	pool := NewPool(PoolConfig{})
	pool.SetMembers([]string{"http://a"})
	resps, err := pool.MapPoints(context.Background(), nil, nil)
	if err != nil || resps != nil {
		t.Fatalf("empty grid = (%v, %v), want (nil, nil)", resps, err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	_, _ = pool.MapPoints(context.Background(), []string{"k"}, nil)
}

func TestMapPointsNoWorkers(t *testing.T) {
	pool := NewPool(PoolConfig{})
	keys, reqs := gridOf(3)
	if _, err := pool.MapPoints(context.Background(), keys, reqs); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestMapPointsRetriesAfterWorkerFailure(t *testing.T) {
	ws := []*fakePointWorker{
		newFakePointWorker(t, "w0"),
		newFakePointWorker(t, "w1"),
		newFakePointWorker(t, "w2"),
	}
	// w0 fails every point: MapPoints must mark it dead, drain its
	// orphaned shard by stealing, and still assemble the full grid.
	ws[0].intercept = func(w http.ResponseWriter, _ PointRequest) bool {
		http.Error(w, "boom", http.StatusInternalServerError)
		return true
	}
	pool := NewPool(PoolConfig{PerWorker: 2, PointTimeout: 10 * time.Second, ReviveAfter: time.Minute})
	pool.SetMembers(workerURLs(ws))

	keys, reqs := gridOf(40)
	resps, err := pool.MapPoints(context.Background(), keys, reqs)
	if err != nil {
		t.Fatalf("MapPoints with a failing worker: %v", err)
	}
	checkOrdered(t, resps)
	st := pool.Stats()
	if st.Failures == 0 || st.Retries == 0 {
		t.Errorf("Failures = %d, Retries = %d; the failing worker was never hit", st.Failures, st.Retries)
	}
	// The dead worker is on probation: a second grid must not touch it.
	before := ws[0].served.Load()
	if _, err := pool.MapPoints(context.Background(), keys, reqs); err != nil {
		t.Fatalf("second MapPoints: %v", err)
	}
	if got := ws[0].served.Load(); got != before {
		t.Errorf("dead worker served %d more points while on probation", got-before)
	}
}

func TestMapPointsAllWorkersDead(t *testing.T) {
	ws := []*fakePointWorker{newFakePointWorker(t, "w0"), newFakePointWorker(t, "w1")}
	pool := NewPool(PoolConfig{PerWorker: 1, PointTimeout: 2 * time.Second, ReviveAfter: time.Minute})
	pool.SetMembers(workerURLs(ws))
	for _, w := range ws {
		w.ts.Close()
	}
	keys, reqs := gridOf(4)
	if _, err := pool.MapPoints(context.Background(), keys, reqs); err == nil {
		t.Fatal("MapPoints succeeded with every worker unreachable")
	}
}

func TestMapPointsOverloadBacksOff(t *testing.T) {
	w := newFakePointWorker(t, "w0")
	// First attempt for every point gets 429; the retry must return to
	// the same (only) worker without marking it dead.
	var rejected atomic.Int64
	seen := make(map[int]bool)
	var mu = make(chan struct{}, 1)
	mu <- struct{}{}
	w.intercept = func(rw http.ResponseWriter, req PointRequest) bool {
		<-mu
		first := !seen[req.Deadline]
		seen[req.Deadline] = true
		mu <- struct{}{}
		if first {
			rejected.Add(1)
			http.Error(rw, "overloaded", http.StatusTooManyRequests)
			return true
		}
		return false
	}
	pool := NewPool(PoolConfig{PerWorker: 2, PointTimeout: 5 * time.Second, ReviveAfter: time.Minute})
	pool.SetMembers([]string{w.ts.URL})

	keys, reqs := gridOf(6)
	resps, err := pool.MapPoints(context.Background(), keys, reqs)
	if err != nil {
		t.Fatalf("MapPoints under transient overload: %v", err)
	}
	checkOrdered(t, resps)
	if rejected.Load() != 6 {
		t.Errorf("rejected = %d, want 6 (one 429 per point)", rejected.Load())
	}
	if got := pool.Stats().Retries; got < 6 {
		t.Errorf("Retries = %d, want >= 6", got)
	}
}

func TestMapPointsContextCancel(t *testing.T) {
	w := newFakePointWorker(t, "w0")
	w.intercept = func(rw http.ResponseWriter, _ PointRequest) bool {
		time.Sleep(300 * time.Millisecond)
		http.Error(rw, "too slow", http.StatusInternalServerError)
		return true
	}
	pool := NewPool(PoolConfig{PerWorker: 1, PointTimeout: 10 * time.Second})
	pool.SetMembers([]string{w.ts.URL})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	keys, reqs := gridOf(8)
	start := time.Now()
	_, err := pool.MapPoints(ctx, keys, reqs)
	if err == nil {
		t.Fatal("MapPoints ignored context cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %s to unwind", elapsed)
	}
}

// --- Point / Proxy ---

func TestPointFailsOverToAnotherWorker(t *testing.T) {
	ws := []*fakePointWorker{newFakePointWorker(t, "w0"), newFakePointWorker(t, "w1")}
	pool := NewPool(PoolConfig{PointTimeout: 5 * time.Second, ReviveAfter: time.Minute})
	pool.SetMembers(workerURLs(ws))

	// Kill the owner of the key; Point must answer from the survivor.
	ring := NewRing(workerURLs(ws), 0)
	const key = "failover-key"
	owner := ring.Owner(key)
	var survivor *fakePointWorker
	for _, w := range ws {
		if w.ts.URL == owner {
			w.ts.Close()
		} else {
			survivor = w
		}
	}
	resp, err := pool.Point(context.Background(), key, PointRequest{Benchmark: "hal", Deadline: 9})
	if err != nil {
		t.Fatalf("Point after owner death: %v", err)
	}
	if want := survivor.id + ":9"; string(resp.Body) != want {
		t.Errorf("Point body = %q, want %q", resp.Body, want)
	}
	if st := pool.Stats(); st.Retries == 0 || st.Failures == 0 {
		t.Errorf("Stats = %+v, want a recorded failover", st)
	}
}

func TestPointDoesNotRetryDeterministicFaults(t *testing.T) {
	ws := []*fakePointWorker{newFakePointWorker(t, "w0"), newFakePointWorker(t, "w1")}
	for _, w := range ws {
		w.intercept = func(rw http.ResponseWriter, _ PointRequest) bool {
			http.Error(rw, "no such benchmark", http.StatusBadRequest)
			return true
		}
	}
	pool := NewPool(PoolConfig{PointTimeout: 5 * time.Second})
	pool.SetMembers(workerURLs(ws))
	_, err := pool.Point(context.Background(), "k", PointRequest{Benchmark: "nope", Deadline: 1})
	if err == nil {
		t.Fatal("Point succeeded on a 400")
	}
	if total := ws[0].served.Load() + ws[1].served.Load(); total != 1 {
		t.Errorf("a deterministic 400 was attempted %d times, want 1", total)
	}
}

func TestProxyForwardsStatusVerbatim(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/portfolio", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		_, _ = w.Write([]byte(`{"error":"infeasible"}`))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	pool := NewPool(PoolConfig{PointTimeout: 5 * time.Second})
	pool.SetMembers([]string{ts.URL})
	status, body, err := pool.Proxy(context.Background(), "k", "/v1/portfolio", []byte(`{}`))
	if err != nil {
		t.Fatalf("Proxy: %v", err)
	}
	if status != http.StatusUnprocessableEntity || string(body) != `{"error":"infeasible"}` {
		t.Errorf("Proxy = (%d, %q); the worker's status and body must pass through verbatim", status, body)
	}
}

// TestProxyCountsOnlyRetriesThatHappen pins Proxy's retry counter to
// Point's rule: a retry is an attempt that moves to another worker, so a
// failure with no worker left to try counts none.
func TestProxyCountsOnlyRetriesThatHappen(t *testing.T) {
	closed := func() string {
		ts := httptest.NewServer(http.NotFoundHandler())
		ts.Close()
		return ts.URL
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/portfolio", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{}`))
	})
	live := httptest.NewServer(mux)
	defer live.Close()

	pool := NewPool(PoolConfig{PointTimeout: 5 * time.Second, ReviveAfter: time.Minute})
	pool.SetMembers([]string{closed()})
	if _, _, err := pool.Proxy(context.Background(), "k", "/v1/portfolio", []byte(`{}`)); err == nil {
		t.Fatal("Proxy to a closed member succeeded")
	}
	if st := pool.Stats(); st.Retries != 0 || st.Failures != 1 {
		t.Errorf("one failing member: Stats = %+v, want 0 retries and 1 failure", st)
	}

	// Two members, and the key's owner is the one that fails.
	dead := closed()
	members := []string{dead, live.URL}
	ring := NewRing(members, 0)
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("proxy-%d", i); ring.Owner(k) == dead {
			key = k
		}
	}
	pool = NewPool(PoolConfig{PointTimeout: 5 * time.Second, ReviveAfter: time.Minute})
	pool.SetMembers(members)
	status, _, err := pool.Proxy(context.Background(), key, "/v1/portfolio", []byte(`{}`))
	if err != nil || status != http.StatusOK {
		t.Fatalf("Proxy after owner failure = (%d, %v), want 200 from the survivor", status, err)
	}
	if st := pool.Stats(); st.Retries != 1 || st.Failures != 1 {
		t.Errorf("owner fails, survivor answers: Stats = %+v, want 1 retry and 1 failure", st)
	}
}

// --- Peers ---

func TestPeersFetch(t *testing.T) {
	const key = "cached-key"
	want := CachedResult{Status: http.StatusOK, Body: []byte(`{"x":1}`)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/cache", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("key") != key {
			http.Error(w, "not cached", http.StatusNotFound)
			return
		}
		_ = json.NewEncoder(w).Encode(want)
	})
	owner := httptest.NewServer(mux)
	defer owner.Close()

	p := NewPeers()
	p.Configure("http://self.invalid", []string{"http://self.invalid", owner.URL})

	ring := NewRing([]string{"http://self.invalid", owner.URL}, 0)
	ownedByPeer, ownedBySelf := "", ""
	for i := 0; ownedByPeer == "" || ownedBySelf == ""; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if ring.Owner(k) == owner.URL {
			ownedByPeer = k
		} else {
			ownedBySelf = k
		}
	}

	// Self-owned keys return immediately without a network round trip.
	if _, ok := p.Fetch(context.Background(), ownedBySelf); ok {
		t.Error("Fetch returned ok for a self-owned key")
	}
	// A peer-owned key the peer does not hold: miss.
	if ring.Owner(ownedByPeer) == owner.URL {
		if _, ok := p.Fetch(context.Background(), ownedByPeer); ok {
			t.Error("Fetch returned ok for a key the owner has not cached")
		}
	}
	// The cached key, when owned by the peer, comes back verbatim.
	if ring.Owner(key) == owner.URL {
		got, ok := p.Fetch(context.Background(), key)
		if !ok {
			t.Fatal("Fetch missed a key the owner has cached")
		}
		if got.Status != want.Status || string(got.Body) != string(want.Body) {
			t.Errorf("Fetch = %+v, want %+v", got, want)
		}
	}
}

func TestPeersUnconfigured(t *testing.T) {
	p := NewPeers()
	if addr, self := p.Owner("k"); !self || addr != "" {
		t.Errorf("unconfigured Owner = (%q, %t), want (\"\", true)", addr, self)
	}
	if _, ok := p.Fetch(context.Background(), "k"); ok {
		t.Error("unconfigured Fetch returned ok")
	}
}

// --- wire ---

func TestCachedResultResult(t *testing.T) {
	infeasible := CachedResult{Status: http.StatusUnprocessableEntity, Body: []byte(`{"error":"infeasible"}`)}
	pr, err := infeasible.Result()
	if err != nil {
		t.Fatalf("422 Result: %v", err)
	}
	if pr.Feasible || pr.Area != 0 || pr.Stats.SchedulerRuns != 0 {
		t.Errorf("422 Result = %+v, want the zero infeasible point", pr)
	}

	// A 200 is read from its summary alone: a body that disagrees, or no
	// body at all, changes nothing.
	sum := Summary{Area: 12.5, Peak: 20, FUs: 2, Registers: 3, Locked: true}
	stats := core.Stats{SchedulerRuns: 7}
	for _, body := range [][]byte{nil, []byte(`{"area": {"total": 99}}`)} {
		design := CachedResult{Status: http.StatusOK, Body: body, Summary: sum, Stats: stats}
		pr, err = design.Result()
		if err != nil {
			t.Fatalf("200 Result: %v", err)
		}
		want := PointResult{Feasible: true, Summary: sum, Stats: stats}
		if pr != want {
			t.Errorf("200 Result (body %q) = %+v, want %+v", body, pr, want)
		}
	}

	if _, err := (CachedResult{Status: http.StatusInternalServerError}).Result(); err == nil {
		t.Error("a 500 CachedResult must not decode into a point")
	}
}
