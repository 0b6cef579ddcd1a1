// Command pchls-coordinator fronts a fleet of pchls-server workers: it
// serves the same /v1 API, but sweep/surface/batch grids are sharded
// across the registered workers by the content address of each grid
// cell (consistent hashing keeps every worker's result cache hot for
// its shard), with work-stealing for straggler shards and retry on a
// different worker when one fails. Single synthesize requests route to
// their key's owner; portfolio and pareto requests are proxied whole to
// their key's owner and not sharded (a portfolio is one search, and a
// front's domination spans its cells). Responses are byte-identical to
// a single pchls-server.
//
// Usage:
//
//	pchls-coordinator -addr :8080 -cluster-workers http://127.0.0.1:8081,http://127.0.0.1:8082
//
// Workers may also join later via POST /cluster/register (the
// pchls-server -join flag).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pchls/internal/cluster"
	"pchls/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workerCSV = flag.String("cluster-workers", "", "comma-separated worker base URLs, e.g. http://127.0.0.1:8081,http://127.0.0.1:8082")
		perWorker = flag.Int("per-worker", 2, "points dispatched concurrently to each worker")
		pointTO   = flag.Duration("point-timeout", 60*time.Second, "per-point attempt timeout before retrying on another worker")
		revive    = flag.Duration("revive-after", 5*time.Second, "probation before a failed worker is probed again")
		workers   = flag.Int("workers", 8, "concurrent grid computations admitted")
		queue     = flag.Int("queue", 0, "admitted requests that may wait for a slot (0 = 4x workers)")
		entries   = flag.Int("cache", 1024, "result-cache capacity in entries")
		ttl       = flag.Duration("ttl", 0, "result-cache entry lifetime (0 = no expiry)")
		timeout   = flag.Duration("timeout", 120*time.Second, "per-request deadline")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
		maxBody   = flag.Int64("max-body", 8<<20, "maximum request body bytes")
	)
	flag.Parse()

	pool := cluster.NewPool(cluster.PoolConfig{
		PerWorker:    *perWorker,
		PointTimeout: *pointTO,
		ReviveAfter:  *revive,
	})
	var members []string
	for _, m := range strings.Split(*workerCSV, ",") {
		if m = strings.TrimSpace(m); m != "" {
			members = append(members, m)
		}
	}
	pool.SetMembers(members)

	s := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *entries,
		CacheTTL:       *ttl,
		RequestTimeout: *timeout,
		MaxBodyBytes:   *maxBody,
		Pool:           pool,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("pchls-coordinator: %v", err)
	}
	log.Printf("pchls-coordinator: listening on %s (cluster workers: %s)",
		l.Addr(), strings.Join(pool.Members(), ", "))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("pchls-coordinator: %v", err)
		}
	case <-ctx.Done():
		log.Printf("pchls-coordinator: draining (up to %s)...", *drain)
		shCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := s.Shutdown(shCtx); err != nil {
			log.Printf("pchls-coordinator: drain incomplete: %v", err)
			os.Exit(1)
		}
		log.Printf("pchls-coordinator: drained cleanly")
	}
}
