package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"pchls"
	"pchls/internal/cluster"
	"pchls/internal/explore"
	"pchls/internal/server"
)

// The fleet workload: one client sends grid requests to an in-process
// coordinator (cluster.Pool, one point in flight per worker) sharding cells
// over two worker servers that fill misses from each other's caches. 75%
// of grids are 6x8 /v1/surface grids, 25% are 4x3 /v1/pareto grids, over
// the seven paper benchmarks. After the warm-up grids the sequence runs in
// rounds: each round holds three surface grids and one pareto grid of
// every benchmark, in seeded order, so every whole round is the same mix.
// The k-th surface (or pareto) grid of a benchmark is the same for every
// seed. Surface grids reuse two power columns of the previous surface grid
// of their benchmark, so about a quarter of their cells are shared with
// earlier grids; every other column is new, so a run never repeats a whole
// grid however fast the machine.
const (
	fleetNominal   = 160 // nominal list length: sets the warm-up pass
	fleetCompare   = 12  // grids byte-compared against a solo server at most
	fleetParetoPct = 4   // one grid in this many is a pareto grid
)

var (
	surfaceOffsets = []int{0, 1, 2, 4, 6, 9}
	paretoOffsets  = []int{0, 2, 4, 8}
)

// grid is one grid request.
type grid struct {
	bench     string
	pareto    bool
	deadlines []int
	powers    []float64
	body      []byte
}

func (g *grid) path() string {
	if g.pareto {
		return "/v1/pareto"
	}
	return "/v1/surface"
}

// gridBody is the /v1/surface and /v1/pareto request schema.
type gridBody struct {
	Benchmark  string    `json:"benchmark"`
	Deadlines  []int     `json:"deadlines"`
	Powers     []float64 `json:"powers"`
	SinglePass bool      `json:"single_pass,omitempty"`
}

// slot is one grid of a round: a benchmark and the kind of grid.
type slot struct {
	bench  string
	pareto bool
}

// gridGen produces the grid sequence lazily, in order.
type gridGen struct {
	seed  int64
	warm  int64 // warm-up grids, in the base order for every seed
	small bool
	cp    map[string]int
	peak  map[string]float64
	base  []slot               // one round in base order
	round []slot               // the current round, in seeded order
	fresh map[slot]int         // fresh power columns drawn per benchmark and kind
	prev  map[string][]float64 // previous surface grid's powers per benchmark
	grids []*grid
}

func newGridGen(seed int64, small bool, warm int) (*gridGen, error) {
	gg := &gridGen{seed: seed, warm: int64(warm), small: small, cp: map[string]int{}, peak: map[string]float64{},
		fresh: map[slot]int{}, prev: map[string][]float64{}}
	names := gg.names()
	for i := 0; i < fleetParetoPct; i++ {
		for _, name := range names {
			gg.base = append(gg.base, slot{name, i == fleetParetoPct-1})
		}
	}
	for _, name := range names {
		g, err := pchls.Benchmark(name)
		if err != nil {
			return nil, err
		}
		if gg.cp[name], gg.peak[name], err = asapBounds(g, pchls.Table1()); err != nil {
			return nil, err
		}
	}
	return gg, nil
}

func (gg *gridGen) names() []string {
	if gg.small {
		return []string{"hal"}
	}
	return pchls.BenchmarkNames()
}

// roundLen is the number of grids in a round.
func (gg *gridGen) roundLen() int { return len(gg.base) }

// freshPower draws a power column never used before for s: the golden
// ratio sequence spreads them over [0.35, 1.0) x peak without repeating.
func (gg *gridGen) freshPower(s slot) float64 {
	n := gg.fresh[s]
	gg.fresh[s]++
	kind := int64(0)
	if s.pareto {
		kind = 1
	}
	offset := float64(mix(kind, int64(slices.Index(gg.names(), s.bench)))>>11) / (1 << 53)
	f := math.Mod(offset+float64(n)*0.6180339887498949, 1)
	return gg.peak[s.bench] * (0.35 + 0.65*f)
}

// slotAt returns the slot of grid j, which must be the next grid to make.
func (gg *gridGen) slotAt(j int64) slot {
	if j < gg.warm {
		return gg.base[j%int64(len(gg.base))]
	}
	r := int64(len(gg.base))
	if (j-gg.warm)%r == 0 {
		gg.round = append(gg.round[:0], gg.base...)
		rand.New(rand.NewSource(int64(mix(gg.seed, (j-gg.warm)/r)>>1))).Shuffle(len(gg.round), func(a, b int) {
			gg.round[a], gg.round[b] = gg.round[b], gg.round[a]
		})
	}
	return gg.round[(j-gg.warm)%r]
}

// at returns grid k, extending the sequence as needed.
func (gg *gridGen) at(k int64) *grid {
	for int64(len(gg.grids)) <= k {
		s := gg.slotAt(int64(len(gg.grids)))
		name := s.bench
		g := &grid{bench: name, pareto: s.pareto}
		offsets, nPowers := surfaceOffsets, 8
		if g.pareto {
			offsets, nPowers = paretoOffsets, 3
		}
		if gg.small {
			offsets, nPowers = offsets[:2], 2
		}
		for _, off := range offsets {
			g.deadlines = append(g.deadlines, gg.cp[name]+off)
		}
		// A surface grid reuses a quarter of its power columns from the
		// previous surface grid of its benchmark: the newest ones, so
		// shared cells never pile up on old columns.
		reuse := nPowers / 4
		if !g.pareto {
			g.powers = append(g.powers, gg.prev[name][:min(reuse, len(gg.prev[name]))]...)
		}
		for len(g.powers) < nPowers {
			g.powers = append(g.powers, gg.freshPower(s))
		}
		if !g.pareto {
			gg.prev[name] = g.powers[nPowers-reuse:]
		}
		body, err := json.Marshal(gridBody{Benchmark: name, Deadlines: g.deadlines, Powers: g.powers, SinglePass: !g.pareto})
		if err != nil {
			// Only a non-finite power could fail to encode, and every
			// power is a finite share of a finite peak.
			panic(err)
		}
		g.body = body
		gg.grids = append(gg.grids, g)
	}
	return gg.grids[k]
}

type fleetSession struct {
	seed    int64
	workers []*daemon
	coord   *daemon
	pool    *cluster.Pool
	client  *http.Client // the load client
	meta    *http.Client // /metrics scrapes
	fabric  *http.Client // coordinator-to-worker and peer traffic

	mu     sync.Mutex
	gen    *gridGen
	bodies map[int64][]byte // served body of every grid run
	last   int64
}

func openFleet(seed int64, small bool) (session, error) {
	gg, err := newGridGen(seed, small, warmLen(fleetNominal))
	if err != nil {
		return nil, err
	}
	s := &fleetSession{seed: seed, gen: gg, bodies: map[int64][]byte{},
		client: newClient(), meta: newClient(), fabric: newClient()}
	var members []string
	var peers []*cluster.Peers
	for i := 0; i < 2; i++ {
		ln, base, err := listen()
		if err != nil {
			_ = s.close() // the listen error is the one to report
			return nil, err
		}
		p := cluster.NewPeers()
		p.Client = s.fabric
		peers = append(peers, p)
		members = append(members, base)
		s.workers = append(s.workers, serve(server.New(server.Config{Worker: true, Peers: p}), ln, base))
	}
	for i, p := range peers {
		p.Configure(members[i], members)
	}
	s.pool = cluster.NewPool(cluster.PoolConfig{PerWorker: 1, Client: s.fabric})
	s.pool.SetMembers(members)
	ln, base, err := listen()
	if err != nil {
		_ = s.close() // the listen error is the one to report
		return nil, err
	}
	s.coord = serve(server.New(server.Config{Pool: s.pool}), ln, base)
	return s, nil
}

func (s *fleetSession) size() int { return fleetNominal }

// pass is a round: a timed phase ends on a whole round, so every run
// measures the same mix of benchmarks and grid kinds.
func (s *fleetSession) pass() int { return s.gen.roundLen() }

func (s *fleetSession) grid(seq int64) *grid {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen.at(seq)
}

func (s *fleetSession) cells(seq int64) int {
	g := s.grid(seq)
	return len(g.deadlines) * len(g.powers)
}

func (s *fleetSession) do(c *opCtx, seq int64) (time.Duration, error) {
	g := s.grid(seq)
	id := c.rec.start("client.post", c.span, c.seq)
	t0 := time.Now()
	status, body, err := post(c.ctx, s.client, s.coord.base+g.path(), g.body)
	lat := time.Since(t0)
	c.rec.end(id)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("%s %s: status %d: %s", g.path(), g.bench, status, bytes.TrimSpace(body))
	}
	s.mu.Lock()
	s.bodies[seq], s.last = body, seq
	s.mu.Unlock()
	return lat, nil
}

func (s *fleetSession) probe(c *opCtx, seq int64) {
	g := s.grid(seq)
	gr, err := pchls.Benchmark(g.bench)
	if err != nil {
		return
	}
	lib := pchls.Table1()
	// The loosest cell of the grid, which is feasible whenever any is.
	probeLayers(c, probeInput{g: gr, lib: lib, single: !g.pareto,
		cons: pchls.Constraints{Deadline: slices.Max(g.deadlines), PowerMax: slices.Max(g.powers)}})
	if g.pareto {
		c.rec.do("explore.ExplorePareto", c.span, c.seq, func() {
			_, _ = explore.ExploreParetoContext(c.ctx, gr, lib, explore.ParetoConfig{Deadlines: g.deadlines, Powers: g.powers, MaxPeriods: 1 << 20})
		})
		return
	}
	c.rec.do("explore.ExploreSurface", c.span, c.seq, func() {
		_, _ = explore.ExploreSurfaceContext(c.ctx, gr, lib, explore.SurfaceConfig{Deadlines: g.deadlines, Powers: g.powers, SinglePass: true})
	})
}

func (s *fleetSession) counters() (map[string]float64, error) {
	out := map[string]float64{}
	m, err := scrape(s.meta, s.coord.base)
	if err != nil {
		return nil, err
	}
	handlerCounters(out, m, "/v1/surface", "/v1/pareto")
	for i, w := range s.workers {
		m, err := scrape(s.meta, w.base)
		if err != nil {
			return nil, err
		}
		engineCounters(out, m)
		out["worker_runs/"+strconv.Itoa(i)] = m["pchls_engine_synth_total"]
	}
	st := s.pool.Stats()
	out["points"], out["steals"], out["retries"], out["pool_failures"] =
		float64(st.Points), float64(st.Steals), float64(st.Retries), float64(st.Failures)
	return out, nil
}

func (s *fleetSession) queueWaiting() float64 {
	hi := 0.0
	for _, d := range append([]*daemon{s.coord}, s.workers...) {
		if m, err := scrape(s.meta, d.base); err == nil {
			hi = math.Max(hi, m["pchls_queue_waiting"])
		}
	}
	return hi
}

// surfaceJSON and paretoJSON are the parts of the grid responses the shape
// check reads.
type surfaceJSON struct {
	Points []struct {
		Deadline int     `json:"deadline"`
		Power    float64 `json:"power"`
	} `json:"points"`
}

type paretoJSON struct {
	Evaluated int `json:"evaluated"`
	Feasible  int `json:"feasible"`
	Points    []struct {
		Deadline int     `json:"deadline"`
		Power    float64 `json:"power"`
		Latency  int     `json:"latency"`
	} `json:"points"`
}

// shape checks that a served grid answers exactly its request's cells.
func shape(g *grid, body []byte) error {
	ds := append([]int(nil), g.deadlines...)
	ps := append([]float64(nil), g.powers...)
	sort.Ints(ds)
	sort.Float64s(ps)
	if g.pareto {
		var out paretoJSON
		if err := json.Unmarshal(body, &out); err != nil {
			return err
		}
		if out.Evaluated != len(ds)*len(ps) || out.Feasible > out.Evaluated || len(out.Points) > out.Feasible {
			return fmt.Errorf("pareto counts: evaluated %d feasible %d points %d for %d cells", out.Evaluated, out.Feasible, len(out.Points), len(ds)*len(ps))
		}
		for _, p := range out.Points {
			if !containsInt(ds, p.Deadline) || !containsFloat(ps, p.Power) || p.Latency > p.Deadline {
				return fmt.Errorf("pareto point (T=%d, P=%g, latency %d) is off the grid", p.Deadline, p.Power, p.Latency)
			}
		}
		return nil
	}
	var out surfaceJSON
	if err := json.Unmarshal(body, &out); err != nil {
		return err
	}
	if len(out.Points) != len(ds)*len(ps) {
		return fmt.Errorf("surface has %d points for %d cells", len(out.Points), len(ds)*len(ps))
	}
	for i, p := range out.Points {
		if p.Deadline != ds[i/len(ps)] || p.Power != ps[i%len(ps)] {
			return fmt.Errorf("surface point %d is (T=%d, P=%g), want (T=%d, P=%g)", i, p.Deadline, p.Power, ds[i/len(ps)], ps[i%len(ps)])
		}
	}
	return nil
}

func containsInt(xs []int, x int) bool {
	i := sort.SearchInts(xs, x)
	return i < len(xs) && xs[i] == x
}

func containsFloat(xs []float64, x float64) bool {
	i := sort.SearchFloat64s(xs, x)
	return i < len(xs) && xs[i] == x
}

// check shape-checks every served grid and byte-compares a seeded quarter
// of them (at most fleetCompare) against a solo in-process server. The
// digest covers the warm-up grids, which every run serves.
func (s *fleetSession) check(corrupt bool) (checkResult, error) {
	var res checkResult
	seqs := make([]int64, 0, len(s.bodies))
	for seq := range s.bodies {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	solo := server.New(server.Config{})
	bad := map[int64]string{}
	compared := 0
	for _, seq := range seqs {
		g, body := s.grid(seq), s.bodies[seq]
		if err := shape(g, body); err != nil {
			bad[seq] = fmt.Sprintf("%s %s: %v", g.path(), g.bench, err)
			continue
		}
		target := corrupt && seq == s.last // the reference the corrupt hook damages
		if !target && (compared >= fleetCompare || mix(s.seed^0xc0de, seq)%4 != 0) {
			continue
		}
		compared++
		rr := httptest.NewRecorder()
		solo.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodPost, g.path(), bytes.NewReader(g.body)))
		want := rr.Body.Bytes()
		if target {
			want = append([]byte("corrupted"), want...)
		}
		if rr.Code != http.StatusOK || !bytes.Equal(body, want) {
			bad[seq] = fmt.Sprintf("%s %s: sharded response differs from the solo server's (status %d)", g.path(), g.bench, rr.Code)
		}
	}
	h := sha256.New()
	for seq := int64(0); seq < int64(warmLen(s.size())); seq++ {
		body, ok := s.bodies[seq]
		if !ok {
			return res, errors.New("a warm-up grid has no served body")
		}
		sum := sha256.Sum256(body)
		h.Write(sum[:])
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	if len(bad) > 0 {
		res.bad = func(seq int64) (string, bool) {
			why, ok := bad[seq]
			return why, ok
		}
	}
	return res, nil
}

func (s *fleetSession) close() error {
	// Idle connections go first: a server's Shutdown waits up to five
	// seconds for a connection the transport dialed but never used.
	clients := []*http.Client{s.client, s.meta, s.fabric}
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	var errs []error
	if s.coord != nil {
		errs = append(errs, s.coord.stop())
	}
	for _, w := range s.workers {
		errs = append(errs, w.stop())
	}
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
