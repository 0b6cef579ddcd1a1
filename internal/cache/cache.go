// Package cache is the content-addressed result cache of the synthesis
// service: a bounded LRU with TTL expiry plus singleflight deduplication,
// so that concurrent identical requests compute a result exactly once and
// repeated requests are served without re-running the engine.
//
// Keys are opaque strings; callers derive them as a canonical hash of the
// full semantic input (CDFG, module library, constraints, synthesizer
// configuration — see the server's key derivation). Synthesis is fully
// deterministic for a given key, which is what makes cached bytes
// byte-identical to a fresh run.
package cache

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies how a Do call obtained its value.
type Outcome int

const (
	// Hit means the value was served from the cache without computing.
	Hit Outcome = iota
	// Miss means this call ran the compute function and filled the cache.
	Miss
	// Coalesced means the call joined an in-flight identical compute and
	// shared its result (singleflight deduplication).
	Coalesced
	// PeerHit means the value was fetched from a cluster peer's cache
	// instead of computing, and now fills the local cache too.
	PeerHit
)

// String returns "hit", "miss", "coalesced" or "peer".
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Coalesced:
		return "coalesced"
	case PeerHit:
		return "peer"
	}
	return "unknown"
}

// Stats is a point-in-time snapshot of the cache's effectiveness counters.
type Stats struct {
	Hits        int64 // Do/Get calls served from the cache
	Misses      int64 // Do calls that ran the compute function
	Coalesced   int64 // Do calls that joined an in-flight compute
	PeerHits    int64 // Do calls served by a cluster peer's cache
	PeerMisses  int64 // peer probes that yielded nothing (fell through to compute)
	Evictions   int64 // entries dropped by the LRU bound
	Expirations int64 // entries dropped because their TTL lapsed
	Entries     int64 // current number of live entries
}

// Cache is a content-addressed LRU+TTL cache with singleflight compute
// deduplication. The zero value is not usable; construct with New.
type Cache[V any] struct {
	maxEntries int
	ttl        time.Duration
	now        func() time.Time
	peer       PeerFunc[V]

	mu      sync.Mutex
	entries map[string]*list.Element // key -> *entry element
	lru     *list.List               // front = most recently used
	flights map[string]*flight[V]

	hits, misses, coalesced, evictions, expirations atomic.Int64
	peerHits, peerMisses                            atomic.Int64
}

type entry[V any] struct {
	key     string
	value   V
	expires time.Time // zero when the cache has no TTL
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Option customizes a Cache.
type Option[V any] func(*Cache[V])

// WithClock replaces the time source (tests).
func WithClock[V any](now func() time.Time) Option[V] {
	return func(c *Cache[V]) { c.now = now }
}

// PeerFunc asks another node's cache for key, returning its value and
// whether it had one. It must only read remote state — never trigger a
// remote computation — so that two nodes can never recurse into each
// other. It should return false quickly for keys this node owns itself.
type PeerFunc[V any] func(ctx context.Context, key string) (V, bool)

// WithPeer installs a peer-fill hook: on a local miss, the flight leader
// consults the peer before running the compute function, and a peer hit
// fills the local cache exactly as a computed value would (the Do
// outcome is PeerHit). Coalesced followers share peer-filled flights the
// same way they share computed ones.
func WithPeer[V any](peer PeerFunc[V]) Option[V] {
	return func(c *Cache[V]) { c.peer = peer }
}

// New returns a cache bounded to maxEntries live entries (<= 0 means 1)
// whose entries expire ttl after insertion (ttl <= 0 disables expiry).
func New[V any](maxEntries int, ttl time.Duration, opts ...Option[V]) *Cache[V] {
	if maxEntries <= 0 {
		maxEntries = 1
	}
	c := &Cache[V]{
		maxEntries: maxEntries,
		ttl:        ttl,
		now:        time.Now,
		entries:    make(map[string]*list.Element),
		lru:        list.New(),
		flights:    make(map[string]*flight[V]),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Get returns the cached value for key, refreshing its LRU position.
// Expired entries are dropped and reported as absent.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	v, ok := c.getLocked(key)
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	}
	return v, ok
}

func (c *Cache[V]) getLocked(key string) (V, bool) {
	var zero V
	el, ok := c.entries[key]
	if !ok {
		return zero, false
	}
	e := el.Value.(*entry[V])
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		c.expirations.Add(1)
		return zero, false
	}
	c.lru.MoveToFront(el)
	return e.value, true
}

// Put stores key -> value, evicting the least recently used entry when the
// bound is exceeded.
func (c *Cache[V]) Put(key string, value V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, value)
}

func (c *Cache[V]) putLocked(key string, value V) {
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*entry[V])
		e.value, e.expires = value, expires
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&entry[V]{key: key, value: value, expires: expires})
	for c.lru.Len() > c.maxEntries {
		c.removeLocked(c.lru.Back())
		c.evictions.Add(1)
	}
}

func (c *Cache[V]) removeLocked(el *list.Element) {
	e := el.Value.(*entry[V])
	c.lru.Remove(el)
	delete(c.entries, e.key)
}

// Do returns the value for key, computing it with compute on a miss. At
// most one compute per key runs at a time: concurrent callers with the
// same key block until the in-flight compute finishes and share its result
// (and its error). Successful computes fill the cache; errors are not
// cached, so a later call retries.
//
// ctx aborts only this caller's wait, not the shared compute: a coalesced
// caller whose context expires returns ctx.Err() while the flight keeps
// running for the others.
//
// A compute (or peer probe) that panics releases its key on the way out:
// nothing is cached, the callers waiting on it get errComputePanicked,
// the panic goes on up this caller's stack, and the next Do for the key
// computes afresh.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func(ctx context.Context) (V, error)) (V, Outcome, error) {
	var zero V
	c.mu.Lock()
	if v, ok := c.getLocked(key); ok {
		c.mu.Unlock()
		c.hits.Add(1)
		return v, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.coalesced.Add(1)
		select {
		case <-f.done:
			return f.val, Coalesced, f.err
		case <-ctx.Done():
			return zero, Coalesced, ctx.Err()
		}
	}
	// The error stands until the flight finishes normally, so a panic
	// below leaves it for the followers.
	f := &flight[V]{done: make(chan struct{}), err: errComputePanicked}
	c.flights[key] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			c.putLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()

	outcome := Miss
	if c.peer != nil {
		if v, ok := c.peer(ctx, key); ok {
			c.peerHits.Add(1)
			f.val, f.err, outcome = v, nil, PeerHit
		} else {
			c.peerMisses.Add(1)
		}
	}
	if outcome == Miss {
		c.misses.Add(1)
		f.val, f.err = compute(ctx)
	}
	return f.val, outcome, f.err
}

// errComputePanicked is what the callers coalesced onto a flight get
// when its compute panics.
var errComputePanicked = errors.New("cache: the computation for this key panicked")

// Len returns the current number of live entries (expired entries linger
// until touched).
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats returns a snapshot of the effectiveness counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Coalesced:   c.coalesced.Load(),
		PeerHits:    c.peerHits.Load(),
		PeerMisses:  c.peerMisses.Load(),
		Evictions:   c.evictions.Load(),
		Expirations: c.expirations.Load(),
		Entries:     int64(c.Len()),
	}
}
