package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"pchls"
	"pchls/internal/cdfg"
	"pchls/internal/gen"
	"pchls/internal/server"
)

// The serve workload: POST /v1/synthesize on an in-process server with two
// engine slots and a 64-entry result cache, from one closed-loop client
// over loopback. 85% of requests name a built-in benchmark, drawn
// Zipf(1.1) over 7 benchmarks x 24 constraint points; 15% carry an inline
// single-pass graph, one of 16 generated graphs. The 184 keys outnumber
// the cache, so hits, misses, evictions and re-computation all show. The
// keys, their popularity ranks and the request cycle are fixed; the seed
// sets where in the cycle a run starts (keyStream).
const (
	serveListLen   = 3000 // nominal list: its first 150 requests warm the cache
	serveCycle     = 600  // the requests after the warm-up repeat with this period
	serveInline    = 16
	serveInlinePct = 0.15
	serveZipfS     = 1.1
	serveCache     = 64
)

// synthesizeBody is the POST /v1/synthesize request schema.
type synthesizeBody struct {
	Benchmark  string      `json:"benchmark,omitempty"`
	Graph      *cdfg.Graph `json:"graph,omitempty"`
	Deadline   int         `json:"deadline"`
	PowerMax   float64     `json:"power_max,omitempty"`
	SinglePass bool        `json:"single_pass,omitempty"`
}

// serveKey is one distinct request: the problem, as the server parses it,
// and its body.
type serveKey struct {
	problem
	single bool
	body   []byte
}

// response is the first answer seen for one key.
type response struct {
	status int
	body   []byte
}

type serveSession struct {
	d       *daemon
	client  *http.Client // the load client
	meta    *http.Client // /metrics scrapes
	keys    []serveKey
	nominal int // list length the warm-up and the digest cover
	stream  *keyStream

	mu    sync.Mutex
	first []*response
	last  int // key of the latest operation
}

// serveKeys builds the 168 named keys and the 16 inline ones.
func serveKeys(small bool) ([]serveKey, []serveKey, error) {
	names, offsets, caps, inline, lo, hi := pchls.BenchmarkNames(), []int{0, 1, 2, 4, 6, 8}, []float64{0.5, 0.7, 0.9, 0}, serveInline, 60, 120
	if small {
		names, offsets, caps, inline, lo, hi = []string{"hal"}, []int{2, 4}, []float64{0.8, 0}, 2, 12, 16
	}
	var named, inl []serveKey
	for _, name := range names {
		g, err := pchls.Benchmark(name)
		if err != nil {
			return nil, nil, err
		}
		cp, peak, err := asapBounds(g, pchls.Table1())
		if err != nil {
			return nil, nil, err
		}
		for _, off := range offsets {
			for _, f := range caps {
				k := serveKey{problem: problem{name: name, g: g, lib: pchls.Table1(),
					cons: pchls.Constraints{Deadline: cp + off, PowerMax: f * peak}}}
				named = append(named, k)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for j := 0; j < inline; j++ {
		g := gen.Graph(int64(2000+j), gen.GraphConfig{Nodes: lo + rng.Intn(hi-lo+1)})
		cp, peak, err := asapBounds(g, pchls.Table1())
		if err != nil {
			return nil, nil, err
		}
		inl = append(inl, serveKey{single: true, problem: problem{name: g.Name, g: g, lib: pchls.Table1(),
			cons: pchls.Constraints{Deadline: cp + cp/2, PowerMax: 0.7 * peak}}})
	}
	for _, ks := range [][]serveKey{named, inl} {
		for i := range ks {
			k := &ks[i]
			req := synthesizeBody{Deadline: k.cons.Deadline, PowerMax: k.cons.PowerMax, SinglePass: k.single}
			if k.single {
				req.Graph = k.g
			} else {
				req.Benchmark = k.name
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, nil, err
			}
			k.body = body
			if k.single {
				// Synthesize the graph the server will decode, so the
				// reference sees exactly the served problem.
				var back synthesizeBody
				if err := json.Unmarshal(body, &back); err != nil {
					return nil, nil, err
				}
				k.g = back.Graph
			}
		}
	}
	return named, inl, nil
}

func openServe(seed int64, small bool) (session, error) {
	named, inl, err := serveKeys(small)
	if err != nil {
		return nil, err
	}
	n, cycle := serveListLen, serveCycle
	if small {
		n, cycle = 40, 16
	}
	ln, base, err := listen()
	if err != nil {
		return nil, err
	}
	s := &serveSession{
		d:       serve(server.New(server.Config{Workers: 2, CacheEntries: serveCache}), ln, base),
		client:  newClient(),
		meta:    newClient(),
		keys:    append(named, inl...),
		nominal: n,
		stream:  newKeyStream(seed, len(named), len(inl), warmLen(n), cycle),
	}
	s.first = make([]*response, len(s.keys))
	return s, nil
}

// keyStream is the request sequence. The warm-up requests and one cycle
// of requests are drawn once from fixed streams; after the warm-up,
// request i is cycle entry (offset + i - warm) mod the cycle's length, the
// offset drawn from the seed. Zipf ranks map onto the named keys through a
// fixed permutation, so the hot keys are not all one benchmark. Every
// whole pass over the cycle asks for the same keys in the same order, so
// once the cache has turned over, runs with any seed hit and miss the same
// keys and do the same work; the seed decides where in the cycle a run
// starts.
type keyStream struct {
	warm, cycle []int
	offset      int64
}

func newKeyStream(seed int64, named, inline, warm, cycle int) *keyStream {
	perm := rand.New(rand.NewSource(2)).Perm(named)
	draw := func(src int64, n int) []int {
		rng := rand.New(rand.NewSource(src))
		zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(named-1))
		keys := make([]int, n)
		for i := range keys {
			if rng.Float64() < serveInlinePct {
				keys[i] = named + rng.Intn(inline)
			} else {
				keys[i] = perm[zipf.Uint64()]
			}
		}
		return keys
	}
	return &keyStream{warm: draw(3, warm), cycle: draw(4, cycle), offset: int64(mix(seed, 0) % uint64(cycle))}
}

// at returns the key of request i.
func (ks *keyStream) at(i int64) int {
	w := int64(len(ks.warm))
	if i < w {
		return ks.warm[i]
	}
	return ks.cycle[(ks.offset+i-w)%int64(len(ks.cycle))]
}

func (s *serveSession) size() int { return s.nominal }

func (s *serveSession) pass() int { return len(s.stream.cycle) }

func (s *serveSession) cells(int64) int { return 1 }

func (s *serveSession) key(seq int64) int { return s.stream.at(seq) }

func (s *serveSession) do(c *opCtx, seq int64) (time.Duration, error) {
	k := s.key(seq)
	id := c.rec.start("client.post", c.span, c.seq)
	t0 := time.Now()
	status, body, err := post(c.ctx, s.client, s.d.base+"/v1/synthesize", s.keys[k].body)
	lat := time.Since(t0)
	c.rec.end(id)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK && status != http.StatusUnprocessableEntity {
		return lat, fmt.Errorf("%s: status %d: %s", s.keys[k].name, status, bytes.TrimSpace(body))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = k
	f := s.first[k]
	if f == nil {
		s.first[k] = &response{status, body}
		return lat, nil
	}
	// Hits replay the cached bytes of the miss that filled the cache; any
	// other answer means the cache or the engine is not deterministic.
	if status != f.status || !bytes.Equal(body, f.body) {
		return lat, fmt.Errorf("%s: response differs from the first response for its key", s.keys[k].name)
	}
	return lat, nil
}

func (s *serveSession) probe(c *opCtx, seq int64) {
	k := s.keys[s.key(seq)]
	probeLayers(c, probeInput{g: k.g, lib: k.lib, cons: k.cons, single: k.single})
}

func (s *serveSession) counters() (map[string]float64, error) {
	m, err := scrape(s.meta, s.d.base)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	engineCounters(out, m)
	handlerCounters(out, m, "/v1/synthesize")
	return out, nil
}

func (s *serveSession) queueWaiting() float64 {
	m, err := scrape(s.meta, s.d.base)
	if err != nil {
		return 0
	}
	return m["pchls_queue_waiting"]
}

// reference synthesizes a key directly through the facade and renders the
// response the server must serve for it.
func reference(k serveKey) (response, error) {
	synth := pchls.SynthesizeBest
	if k.single {
		synth = pchls.Synthesize
	}
	d, err := synth(k.g, k.lib, k.cons, pchls.Config{Workers: 1})
	if errors.Is(err, pchls.ErrInfeasible) {
		return response{status: http.StatusUnprocessableEntity}, nil
	}
	if err != nil {
		return response{}, fmt.Errorf("%s: %w", k.name, err)
	}
	body, err := d.JSON()
	return response{http.StatusOK, body}, err
}

// check computes the direct-engine reference of every key served or in
// the nominal list and compares each served response against it: a 200
// must carry the reference bytes, and a 422 must answer exactly the
// infeasible keys. The digest covers the nominal
// list, which every run's references span.
func (s *serveSession) check(corrupt bool) (checkResult, error) {
	refs := make([]response, len(s.keys))
	list := make([]int, s.nominal)
	for i := range list {
		list[i] = s.key(int64(i))
	}
	inList := make([]bool, len(s.keys))
	for _, k := range list {
		inList[k] = true
	}
	for k, f := range s.first {
		inList[k] = inList[k] || f != nil
	}
	for k := range s.keys {
		if inList[k] {
			var err error
			if refs[k], err = reference(s.keys[k]); err != nil {
				return checkResult{}, err
			}
		}
	}
	if corrupt {
		r := &refs[s.last]
		r.status, r.body = http.StatusOK, append([]byte("corrupted"), r.body...)
	}

	var res checkResult
	badKey := map[int]string{}
	for k, f := range s.first {
		if f == nil {
			continue
		}
		ref := refs[k]
		switch {
		case f.status != ref.status:
			badKey[k] = fmt.Sprintf("%s: served status %d, direct engine says %d", s.keys[k].name, f.status, ref.status)
		case f.status == http.StatusOK && !bytes.Equal(f.body, ref.body):
			badKey[k] = fmt.Sprintf("%s: served design differs from the direct engine's", s.keys[k].name)
		}
	}
	h := sha256.New()
	for _, k := range list {
		sum := sha256.Sum256(append([]byte(fmt.Sprint(refs[k].status)), refs[k].body...))
		h.Write(sum[:])
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	if len(badKey) > 0 {
		res.bad = func(seq int64) (string, bool) {
			why, ok := badKey[s.key(seq)]
			return why, ok
		}
	}
	return res, nil
}

func (s *serveSession) close() error {
	// Idle connections go first: Shutdown waits up to five seconds for a
	// connection the transport dialed but never used.
	s.client.CloseIdleConnections()
	s.meta.CloseIdleConnections()
	err := s.d.stop()
	s.client.CloseIdleConnections()
	s.meta.CloseIdleConnections()
	return err
}
