package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"pchls/internal/bench"
	"pchls/internal/core"
	"pchls/internal/explore"
	"pchls/internal/library"
)

const halParetoBody = `{"benchmark":"hal","deadlines":[9,12,17],"powers":[6,20,40]}`

// TestParetoEndpoint drives POST /v1/pareto end to end: the served front
// must carry designs byte-identical to a direct in-process exploration
// under the server's own defaults (kibam battery sized by DefaultBattery,
// the same period cap, serial synthesis), every design must re-validate,
// and a repeat must be a byte-identical cache hit.
func TestParetoEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{ExploreWorkers: 2})

	resp := postJSON(t, ts.URL+"/v1/pareto", halParetoBody)
	cold := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, cold)
	}
	var got paretoJSON
	if err := json.Unmarshal(cold, &got); err != nil {
		t.Fatalf("body: %v", err)
	}
	if got.Benchmark != "hal" || got.Battery != "kibam" {
		t.Errorf("benchmark %q battery %q, want hal/kibam", got.Benchmark, got.Battery)
	}
	if got.Evaluated != 9 || len(got.Points) == 0 {
		t.Errorf("evaluated %d with %d points, want 9 evaluated and a non-empty front", got.Evaluated, len(got.Points))
	}

	g, err := bench.ByName("hal")
	if err != nil {
		t.Fatal(err)
	}
	battery, err := explore.DefaultBattery(g, library.Table1(), "kibam")
	if err != nil {
		t.Fatal(err)
	}
	want, err := explore.ExplorePareto(g, library.Table1(), explore.ParetoConfig{
		Deadlines:  []int{9, 12, 17},
		Powers:     []float64{6, 20, 40},
		Battery:    battery,
		MaxPeriods: paretoMaxPeriods,
		Workers:    2,
		Config:     core.Config{Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Points) != len(got.Points) {
		t.Fatalf("served %d points, direct exploration %d", len(got.Points), len(want.Points))
	}
	for i, p := range got.Points {
		w := want.Points[i]
		if p.Deadline != w.Deadline || p.PowerMax != w.PowerMax || p.Area != w.Area ||
			p.Latency != w.Latency || p.Peak != w.Peak || p.Lifetime != w.Lifetime {
			t.Errorf("point %d objectives differ from direct exploration: %+v vs %+v", i, p, w)
		}
		direct, err := w.Design.JSON()
		if err != nil {
			t.Fatal(err)
		}
		// The envelope's MarshalIndent re-indents the embedded design
		// document, so equality holds on the compacted bytes.
		var servedC, directC bytes.Buffer
		if err := json.Compact(&servedC, p.Design); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&directC, direct); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(servedC.Bytes(), directC.Bytes()) {
			t.Errorf("point %d design is not byte-identical to the direct exploration", i)
		}
	}

	warm := postJSON(t, ts.URL+"/v1/pareto", halParetoBody)
	warmBytes := readBody(t, warm)
	if out := warm.Header.Get(headerCache); out != "hit" {
		t.Errorf("repeat %s = %q, want hit", headerCache, out)
	}
	if !bytes.Equal(cold, warmBytes) {
		t.Error("warm body differs from cold")
	}
}

// TestParetoBatteryParamsAddressTheCache: the battery model and capacity
// are part of the content address — changing either must miss the cache
// and may change the front's lifetime column.
func TestParetoBatteryParamsAddressTheCache(t *testing.T) {
	_, ts := newTestServer(t, Config{ExploreWorkers: 2})

	readBody(t, postJSON(t, ts.URL+"/v1/pareto", halParetoBody))
	peukert := postJSON(t, ts.URL+"/v1/pareto",
		`{"benchmark":"hal","deadlines":[9,12,17],"powers":[6,20,40],"battery":{"model":"peukert"}}`)
	body := readBody(t, peukert)
	if peukert.StatusCode != http.StatusOK {
		t.Fatalf("peukert status = %d, body %s", peukert.StatusCode, body)
	}
	if out := peukert.Header.Get(headerCache); out != "miss" {
		t.Errorf("different battery model %s = %q, want miss", headerCache, out)
	}
	var got paretoJSON
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Battery != "peukert" {
		t.Errorf("battery = %q, want peukert", got.Battery)
	}

	capped := postJSON(t, ts.URL+"/v1/pareto",
		`{"benchmark":"hal","deadlines":[9,12,17],"powers":[6,20,40],"battery":{"model":"peukert","capacity":40}}`)
	cappedBody := readBody(t, capped)
	if capped.StatusCode != http.StatusOK {
		t.Fatalf("explicit capacity status = %d, body %s", capped.StatusCode, cappedBody)
	}
	if out := capped.Header.Get(headerCache); out != "miss" {
		t.Errorf("different capacity %s = %q, want miss", headerCache, out)
	}
}

// TestParetoBadRequests covers the endpoint's validation contract.
func TestParetoBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body, wantSub string
	}{
		{"no grid", `{"benchmark":"hal"}`, "deadlines"},
		{"empty powers", `{"benchmark":"hal","deadlines":[9]}`, "powers"},
		{"bad deadline", `{"benchmark":"hal","deadlines":[0],"powers":[20]}`, "deadline"},
		{"unknown battery", `{"benchmark":"hal","deadlines":[9],"powers":[20],"battery":{"model":"nimh"}}`, "battery"},
		{"negative capacity", `{"benchmark":"hal","deadlines":[9],"powers":[20],"battery":{"capacity":-1}}`, "capacity"},
		{"no graph", `{"deadlines":[9],"powers":[20]}`, "graph"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/pareto", tc.body)
			body := readBody(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s, want 400", resp.StatusCode, body)
			}
			if !strings.Contains(strings.ToLower(string(body)), tc.wantSub) {
				t.Errorf("error %s does not mention %q", body, tc.wantSub)
			}
		})
	}
}

// TestParetoInBatchMatchesStandalone: a pareto batch item must return the
// byte-identical body of the standalone endpoint.
func TestParetoInBatchMatchesStandalone(t *testing.T) {
	_, ts := newTestServer(t, Config{ExploreWorkers: 2})
	standalone := readBody(t, postJSON(t, ts.URL+"/v1/pareto", halParetoBody))

	resp := postJSON(t, ts.URL+"/v1/batch", fmt.Sprintf(`{"requests":[{"pareto":%s}]}`, halParetoBody))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", resp.StatusCode, body)
	}
	var batch batchJSON
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 || batch.Results[0].Status != http.StatusOK {
		t.Fatalf("batch results = %+v", batch.Results)
	}
	if !bytes.Equal(batch.Results[0].Body, standalone) {
		t.Error("batch pareto body differs from the standalone endpoint")
	}
	if batch.Results[0].Cache != "hit" {
		t.Errorf("batch cache = %q, want hit after the standalone warm-up", batch.Results[0].Cache)
	}
}

// TestParetoPointsMetric: serving a front must observe its size in the
// pchls_pareto_points histogram.
func TestParetoPointsMetric(t *testing.T) {
	_, ts := newTestServer(t, Config{ExploreWorkers: 2})
	readBody(t, postJSON(t, ts.URL+"/v1/pareto", halParetoBody))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(readBody(t, resp))
	if !strings.Contains(metrics, "pchls_pareto_points_count 1") {
		t.Errorf("metrics missing pareto front observation:\n%s", metrics)
	}
}
