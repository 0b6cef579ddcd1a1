package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"pchls/internal/core"
	"pchls/internal/portfolio"
)

// TestPortfolioEndpoint drives POST /v1/portfolio end to end: the
// response must carry the portfolio stats and a design byte-identical to
// a direct engine call with the same knobs, a repeat must be a warm
// byte-identical cache hit, and the improvement metrics must move.
func TestPortfolioEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Validate: true})

	body := `{"benchmark": "hal", "deadline": 11, "power_max": 29.28, "k": 8, "budget": 2, "seed": 1}`
	resp := postJSON(t, ts.URL+"/v1/portfolio", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get(headerCache); got != "miss" {
		t.Fatalf("cold request: %s = %q, want miss", headerCache, got)
	}
	cold := readBody(t, resp)

	var out struct {
		Design    json.RawMessage    `json:"design"`
		Portfolio portfolioStatsJSON `json:"portfolio"`
	}
	if err := json.Unmarshal(cold, &out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !out.Portfolio.Improved || out.Portfolio.Gap <= 0 {
		t.Fatalf("hal T=11 P<=29.28 is a known-improvable point, got %+v", out.Portfolio)
	}
	if out.Portfolio.Area >= out.Portfolio.BaselineArea {
		t.Fatalf("area %.1f not below baseline %.1f", out.Portfolio.Area, out.Portfolio.BaselineArea)
	}

	// The served design must match a direct portfolio call bit for bit.
	g, lib, cons, err := (&portfolioRequest{source: source{Benchmark: "hal"}, Deadline: 11, PowerMax: 29.28, K: 8, Budget: 2, Seed: 1}).validate()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := portfolio.Synthesize(g, lib, cons, portfolio.Config{K: 8, Budget: 2, Seed: 1, Core: core.Config{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	directJSON, err := direct.Design.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var served, want bytes.Buffer
	if err := json.Compact(&served, out.Design); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, directJSON); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), want.Bytes()) {
		t.Fatal("served design differs from a direct portfolio synthesis with the same knobs")
	}

	// Warm repeat: byte-identical, served from cache.
	resp = postJSON(t, ts.URL+"/v1/portfolio", body)
	if got := resp.Header.Get(headerCache); got != "hit" {
		t.Fatalf("warm request: %s = %q, want hit", headerCache, got)
	}
	if warm := readBody(t, resp); !bytes.Equal(warm, cold) {
		t.Fatal("warm response bytes differ from the cold run")
	}

	// The improvement counter moved and the gap histogram saw one sample.
	resp, err2 := http.Get(ts.URL + "/metrics")
	if err2 != nil {
		t.Fatal(err2)
	}
	text := string(readBody(t, resp))
	if !strings.Contains(text, "pchls_portfolio_improvements_total") {
		t.Fatal("metrics page lacks pchls_portfolio_improvements_total")
	}
	if !strings.Contains(text, "pchls_portfolio_gap_count") {
		t.Fatal("metrics page lacks the pchls_portfolio_gap histogram")
	}
	if s.portfolioImprovements.Value() == 0 {
		t.Fatal("pchls_portfolio_improvements_total never incremented")
	}
}

// TestPortfolioEndpointErrors pins the request validation and the
// cacheable infeasibility verdict.
func TestPortfolioEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{"benchmark": "hal", "deadline": 11, "k": 99}`, http.StatusBadRequest},
		{`{"benchmark": "hal", "deadline": 11, "budget": 99}`, http.StatusBadRequest},
		{`{"benchmark": "hal", "deadline": 0}`, http.StatusBadRequest},
		{`{"benchmark": "hal", "deadline": 11, "nope": 1}`, http.StatusBadRequest},
		{`{"benchmark": "ar", "deadline": 2, "power_max": 1}`, http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		resp := postJSON(t, ts.URL+"/v1/portfolio", c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (body: %s)", c.body, resp.StatusCode, c.want, readBody(t, resp))
			continue
		}
		readBody(t, resp)
	}
}
