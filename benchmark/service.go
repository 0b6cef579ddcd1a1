package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pchls/internal/server"
)

// newClient returns an HTTP client holding at most two connections per
// host, the most a two-client closed loop ever needs.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// daemon is one in-process server listening on a loopback port.
type daemon struct {
	srv  *server.Server
	ln   net.Listener
	base string
	done chan error
}

// listen reserves a loopback port; the server is attached by serve.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve starts srv on ln.
func serve(srv *server.Server, ln net.Listener, base string) *daemon {
	d := &daemon{srv: srv, ln: ln, base: base, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ln) }()
	return d
}

// stop drains the server and waits for its Serve loop to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-d.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// post sends one JSON request and returns the status and the whole body.
func post(ctx context.Context, client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out, nil
}

// scrape reads a server's /metrics into a map keyed by the series name with
// its labels, e.g. `pchls_request_seconds_sum{endpoint="/v1/synthesize"}`.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("GET /metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// engineCounters adds one server's engine, admission and result-cache
// counters from its /metrics onto the canonical counter names in dst.
func engineCounters(dst, m map[string]float64) {
	for canon, series := range map[string]string{
		"engine_runs":       "pchls_engine_synth_total",
		"sched_runs":        "pchls_engine_scheduler_runs_total",
		"pinned_runs":       "pchls_engine_incremental_runs_total",
		"window_hits":       "pchls_engine_window_cache_hits_total",
		"window_misses":     "pchls_engine_window_cache_misses_total",
		"rejected":          "pchls_admission_rejected_total",
		"cache_hits":        "pchls_cache_hits_total",
		"cache_misses":      "pchls_cache_misses_total",
		"cache_coalesced":   "pchls_cache_coalesced_total",
		"cache_evictions":   "pchls_cache_evictions_total",
		"cache_peer_hits":   "pchls_cache_peer_hits_total",
		"cache_peer_misses": "pchls_cache_peer_misses_total",
	} {
		dst[canon] += m[series]
	}
}

// handlerCounters adds the time a server's handlers for the given
// endpoints spent (pchls_request_seconds) into dst.
func handlerCounters(dst, m map[string]float64, endpoints ...string) {
	for _, ep := range endpoints {
		dst["handler_s"] += m[`pchls_request_seconds_sum{endpoint="`+ep+`"}`]
		dst["handler_n"] += m[`pchls_request_seconds_count{endpoint="`+ep+`"}`]
	}
}
