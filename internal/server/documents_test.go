package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/cdfg"
)

// TestDocumentsPinned pins the bytes of the computing /v1 documents. The
// grid documents are explore's result types marshaled as they are, so a
// renamed or dropped JSON tag on explore.Point, Curve, SurfacePoint,
// Surface or ParetoPoint changes a hash here.
func TestDocumentsPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct{ path, body, sha256 string }{
		{"/v1/sweep", `{"benchmark":"hal","deadline":17,"power_min":5,"power_max":60,"step":5,"single_pass":true}`,
			"d02dd92350654add52518f4fcca5ae43b8b7339b07c74d1b522776e1d8414c1e"},
		{"/v1/surface", `{"benchmark":"cosine","deadlines":[12,15,19],"powers":[10,20,40,80],"single_pass":true}`,
			"1a832a48598f3e6549dc2aa731190036292ac5e5b037d85b7cf8fd21c2961102"},
		{"/v1/sweep", `{"benchmark":"elliptic","deadline":22,"power_min":2.5,"power_max":40,"step":2.5}`,
			"763cf70c243cd33e0b94b8f78aca754ac16d8f0d9a3bb2a78640cd69ac86bf09"},
		{"/v1/surface", `{"benchmark":"hal","deadlines":[8,10,17],"powers":[3,10,20]}`,
			"f056e3ae2e5971477b5db938918273292fc2984f2951ec000c94177efc7f6db9"},
		{"/v1/pareto", `{"benchmark":"hal","deadlines":[10,17],"powers":[10,20,40],"single_pass":true}`,
			"706096c6d263a8da9915dd2edad97540a3702d0952a1ae1c463b35aa778f171c"},
		{"/v1/pareto", `{"benchmark":"diffeq2","deadlines":[20,30],"powers":[10,15],"battery":{"model":"peukert"}}`,
			"0c90b18722e64bb2d27ba79f94ad17f6e92cb5ebb6cf7fc9a472a8710178ccdf"},
		{"/v1/portfolio", `{"benchmark":"hal","deadline":17,"power_max":20,"k":4,"budget":1,"seed":3}`,
			"6f4ab8a6dc5331466a26df2973b42bb6f64d9c3840f0a40310d89085c6fbb5bd"},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", tc.path, tc.body, resp.StatusCode, body)
		}
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%s %s: sha256 %s, want %s\n%s", tc.path, tc.body, got, tc.sha256, body)
		}
	}
}

// TestBenchmarkGraphsRoundTrip: every graph /v1/benchmarks serves decodes
// to its built-in graph, operand order included, and posting it inline
// answers from the named benchmark's cache entry with the same bytes.
func TestBenchmarkGraphsRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var list []struct {
		Name  string          `json:"name"`
		Graph json.RawMessage `json:"graph"`
	}
	if err := json.Unmarshal(readBody(t, postGet(t, ts.URL+"/v1/benchmarks")), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(benchmarkNames) {
		t.Fatalf("benchmarks = %d entries, want %d", len(list), len(benchmarkNames))
	}
	for i, b := range list {
		want, err := bench.ByName(b.Name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cdfg.ParseJSON(b.Graph)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for v := range want.N() {
			id := cdfg.NodeID(v)
			if fmt.Sprint(got.Preds(id), got.Succs(id)) != fmt.Sprint(want.Preds(id), want.Succs(id)) {
				t.Errorf("%s: node %s decodes with preds %v succs %v, want %v %v",
					b.Name, want.Node(id).Name, got.Preds(id), got.Succs(id), want.Preds(id), want.Succs(id))
			}
		}

		// The critical path with no power cap is feasible for every
		// benchmark.
		cp, _, _ := surfaceAxes(t, b.Name)
		cons := fmt.Sprintf(`"deadline":%d,"single_pass":true`, cp)
		named := postJSON(t, ts.URL+"/v1/synthesize", fmt.Sprintf(`{"benchmark":%q,%s}`, b.Name, cons))
		namedBody := readBody(t, named)
		if named.StatusCode != http.StatusOK {
			t.Fatalf("%s by name: status %d: %s", b.Name, named.StatusCode, namedBody)
		}
		inline := postJSON(t, ts.URL+"/v1/synthesize", fmt.Sprintf(`{"graph":%s,%s}`, b.Graph, cons))
		inlineBody := readBody(t, inline)
		if inline.Header.Get(headerCache) != "hit" || string(inlineBody) != string(namedBody) {
			t.Errorf("%s inline: cache %q, same bytes %t; want a hit on the named entry",
				b.Name, inline.Header.Get(headerCache), string(inlineBody) == string(namedBody))
		}
		if st := s.cache.Stats(); st.Entries != int64(i+1) {
			t.Errorf("%s: cache entries = %d, want %d", b.Name, st.Entries, i+1)
		}
	}
}
