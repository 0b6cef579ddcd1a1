package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pchls/internal/bench"
	"pchls/internal/cluster"
	"pchls/internal/explore"
	"pchls/internal/library"
	"pchls/internal/sched"
)

// surfaceAxes is the surface of one built-in benchmark that the cluster
// tests sweep: a deadline below the critical path (every cell a 422),
// the critical path and a looser one, under a third of the ASAP peak and
// the peak itself.
func surfaceAxes(t *testing.T, name string) (cp int, deadlines []int, powers []float64) {
	t.Helper()
	g, err := bench.ByName(name)
	if err != nil {
		t.Fatalf("bench.ByName(%q): %v", name, err)
	}
	asap, err := sched.ASAP(g, sched.UniformFastest(library.Table1()))
	if err != nil {
		t.Fatalf("ASAP(%s): %v", name, err)
	}
	cp, peak := asap.Length(), asap.PeakPower()
	return cp, []int{cp - 1, cp, cp + 3}, []float64{peak / 3, peak}
}

// surfaceBody renders a /v1/surface request.
func surfaceBody(name string, deadlines []int, powers []float64, singlePass bool) string {
	d, _ := json.Marshal(deadlines)
	p, _ := json.Marshal(powers)
	return fmt.Sprintf(`{"benchmark":%q,"deadlines":%s,"powers":%s,"single_pass":%t}`, name, d, p, singlePass)
}

// designMeta is the part of the design document (internal/core) that a
// point summary stands for.
type designMeta struct {
	Area struct {
		Total float64 `json:"total"`
	} `json:"area"`
	PeakPower float64           `json:"peak_power"`
	Locked    bool              `json:"repair_locked"`
	FUs       []json.RawMessage `json:"functional_units"`
	Registers []json.RawMessage `json:"registers"`
}

// postPoint sends one /cluster/point request and decodes the answer.
func postPoint(t *testing.T, url, body string) cluster.PointResponse {
	t.Helper()
	resp := postJSON(t, url+"/cluster/point", body)
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/cluster/point %s = %d (%s)", body, resp.StatusCode, raw)
	}
	var pr cluster.PointResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatalf("decoding point answer: %v", err)
	}
	return pr
}

// TestPointSummaryMatchesBody holds a worker's point summary to its own
// design document, bit for bit: for every cell of the seven benchmarks'
// surfaces, under the single-pass and the full engine, the summary equals
// what parsing the body gives, and the answer without the body carries
// the same summary. Cells below the critical path, and any other
// infeasible cell, are 422s with a zero summary.
func TestPointSummaryMatchesBody(t *testing.T) {
	_, worker := newTestServer(t, Config{Worker: true})
	feasible, infeasible := 0, 0
	for _, name := range benchmarkNames {
		cp, deadlines, powers := surfaceAxes(t, name)
		for _, single := range []bool{true, false} {
			for _, d := range deadlines {
				for _, p := range powers {
					cell := fmt.Sprintf(`"benchmark":%q,"deadline":%d,"power_max":%s,"single_pass":%t`,
						name, d, jsonFloat(p), single)
					full := postPoint(t, worker.URL, "{"+cell+`,"body":true}`)
					bare := postPoint(t, worker.URL, "{"+cell+"}")
					if bare.Body != nil {
						t.Fatalf("%s: answer without the body flag carries %d body bytes", cell, len(bare.Body))
					}
					if bare.Status != full.Status || bare.Summary != full.Summary || bare.Stats != full.Stats {
						t.Fatalf("%s: answers disagree: %+v against %+v", cell, bare.CachedResult, full.CachedResult)
					}
					if d < cp && full.Status != http.StatusUnprocessableEntity {
						t.Fatalf("%s: below the critical path got status %d, want 422", cell, full.Status)
					}
					if full.Status == http.StatusUnprocessableEntity {
						if full.Summary != (explore.Summary{}) {
							t.Fatalf("%s: a 422 with summary %+v, want zero", cell, full.Summary)
						}
						infeasible++
						continue
					}
					if full.Status != http.StatusOK {
						t.Fatalf("%s: status %d (%s)", cell, full.Status, full.Body)
					}
					var m designMeta
					if err := json.Unmarshal(full.Body, &m); err != nil {
						t.Fatalf("%s: parsing the body: %v", cell, err)
					}
					got := full.Summary
					if math.Float64bits(got.Area) != math.Float64bits(m.Area.Total) ||
						math.Float64bits(got.Peak) != math.Float64bits(m.PeakPower) ||
						got.FUs != len(m.FUs) || got.Registers != len(m.Registers) || got.Locked != m.Locked {
						t.Errorf("%s: summary %+v, body reads area %v peak %v fus %d registers %d locked %t",
							cell, got, m.Area.Total, m.PeakPower, len(m.FUs), len(m.Registers), m.Locked)
					}
					feasible++
				}
			}
		}
	}
	// Every benchmark meets its loosest cell; every one misses below cp.
	if n := 2 * len(benchmarkNames); feasible < n || infeasible < 2*n {
		t.Errorf("checked %d feasible and %d infeasible cells, want at least %d and %d", feasible, infeasible, n, 2*n)
	}
}

// jsonFloat renders a float as encoding/json does.
func jsonFloat(f float64) string {
	b, _ := json.Marshal(f)
	return string(b)
}

// pointRecorder wraps a worker's handler and keeps the raw request and
// answer of every /cluster/point exchange.
type pointRecorder struct {
	next http.Handler

	mu        sync.Mutex
	exchanges [][2][]byte // request body, answer body
}

func (p *pointRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/cluster/point" {
		p.next.ServeHTTP(w, r)
		return
	}
	req, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(req))
	rec := httptest.NewRecorder()
	p.next.ServeHTTP(rec, r)
	p.mu.Lock()
	p.exchanges = append(p.exchanges, [2][]byte{req, rec.Body.Bytes()})
	p.mu.Unlock()
	for k, v := range rec.Header() {
		w.Header()[k] = v
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(rec.Body.Bytes())
}

// take returns and clears the recorded exchanges.
func (p *pointRecorder) take() [][2][]byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := p.exchanges
	p.exchanges = nil
	return out
}

// hasField reports whether a JSON object has a top-level key.
func hasField(t *testing.T, doc []byte, key string) bool {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("decoding %s: %v", doc, err)
	}
	_, ok := m[key]
	return ok
}

// TestGridPointCarriesNoBody checks what crosses the wire: a grid cell's
// point request asks for no body and its answer carries none, while the
// coordinator's single synthesize asks for and gets the exact body. The
// public synthesize schema has no body flag.
func TestGridPointCarriesNoBody(t *testing.T) {
	var recs []*pointRecorder
	var urls []string
	for i := 0; i < 2; i++ {
		rec := &pointRecorder{next: New(Config{Worker: true}).Handler()}
		ts := httptest.NewServer(rec)
		t.Cleanup(ts.Close)
		recs, urls = append(recs, rec), append(urls, ts.URL)
	}
	pool := cluster.NewPool(cluster.PoolConfig{PerWorker: 2, PointTimeout: 30 * time.Second, ReviveAfter: time.Minute})
	pool.SetMembers(urls)
	_, coord := newTestServer(t, Config{Pool: pool})
	_, solo := newTestServer(t, Config{})

	_, deadlines, powers := surfaceAxes(t, "diffeq2")
	requireSameResponse(t, "/v1/surface", surfaceBody("diffeq2", deadlines, powers, false), coord.URL, solo.URL)
	var grid [][2][]byte
	for _, rec := range recs {
		grid = append(grid, rec.take()...)
	}
	if want := len(deadlines) * len(powers); len(grid) != want {
		t.Fatalf("the surface made %d point exchanges, want %d", len(grid), want)
	}
	for _, ex := range grid {
		if hasField(t, ex[0], "body") {
			t.Errorf("grid point request %s asks for the body", ex[0])
		}
		if hasField(t, ex[1], "body") {
			t.Errorf("grid point answer carries a body: %.200s", ex[1])
		}
		if !hasField(t, ex[1], "summary") {
			t.Errorf("grid point answer has no summary: %.200s", ex[1])
		}
	}

	const synth = `{"benchmark":"diffeq2","deadline":30,"power_max":11}`
	requireSameResponse(t, "/v1/synthesize", synth, coord.URL, solo.URL)
	var single [][2][]byte
	for _, rec := range recs {
		single = append(single, rec.take()...)
	}
	if len(single) != 1 {
		t.Fatalf("the synthesize made %d point exchanges, want 1", len(single))
	}
	if !hasField(t, single[0][0], "body") || !hasField(t, single[0][1], "body") {
		t.Errorf("single synthesize exchange lacks the body: request %s", single[0][0])
	}

	resp := postJSON(t, solo.URL+"/v1/synthesize", strings.TrimSuffix(synth, "}")+`,"body":true}`)
	readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/synthesize with a body flag = %d, want 400: the public schema has no such field", resp.StatusCode)
	}
}

// TestClusterSurfaceFromPeerFills answers a surface from cells the
// answering worker holds only as peer fills: one worker computes every
// cell, the coordinator's only worker fills each from it over
// /cluster/cache, and the assembled surface is byte-identical to a solo
// server's.
func TestClusterSurfaceFromPeerFills(t *testing.T) {
	_, owner := newTestServer(t, Config{Worker: true})
	peers := cluster.NewPeers()
	answering, front := newTestServer(t, Config{Worker: true, Peers: peers})
	// A ring of the owner alone: every key is the owner's.
	peers.Configure(front.URL, []string{owner.URL})
	pool := cluster.NewPool(cluster.PoolConfig{PerWorker: 2, PointTimeout: 30 * time.Second, ReviveAfter: time.Minute})
	pool.SetMembers([]string{front.URL})
	_, coord := newTestServer(t, Config{Pool: pool})
	_, solo := newTestServer(t, Config{})

	cells := 0
	for _, tc := range []struct {
		name   string
		single bool
	}{{"hal", false}, {"fft8", true}} {
		_, deadlines, powers := surfaceAxes(t, tc.name)
		for _, d := range deadlines {
			for _, p := range powers {
				body := fmt.Sprintf(`{"benchmark":%q,"deadline":%d,"power_max":%s,"single_pass":%t}`,
					tc.name, d, jsonFloat(p), tc.single)
				readBody(t, postJSON(t, owner.URL+"/v1/synthesize", body))
				cells++
			}
		}
		requireSameResponse(t, "/v1/surface", surfaceBody(tc.name, deadlines, powers, tc.single), coord.URL, solo.URL)
	}
	if st := answering.cache.Stats(); st.PeerHits != int64(cells) || st.Misses != 0 || st.Hits != 0 {
		t.Errorf("answering worker cache %+v, want all %d cells as peer fills", st, cells)
	}
	if runs := answering.engineRuns.Value(); runs != 0 {
		t.Errorf("answering worker ran the engine %d times, want 0", runs)
	}
}
