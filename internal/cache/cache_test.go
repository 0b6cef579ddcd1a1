package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetPutLRU(t *testing.T) {
	c := New[int](2, 0)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", 3) // evicts b (a was refreshed by the Get above)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing after eviction pass", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 entries", s)
	}
}

func TestPutOverwriteRefreshes(t *testing.T) {
	c := New[int](2, 0)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // overwrite refreshes a's LRU slot
	c.Put("c", 3)  // evicts b
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("a = %d,%t, want 10,true", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func TestTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := New(4, time.Minute, WithClock[int](clock))
	c.Put("a", 1)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(2 * time.Minute)
	if _, ok := c.Get("a"); ok {
		t.Fatal("expired entry served")
	}
	if s := c.Stats(); s.Expirations != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 expiration / 0 entries", s)
	}
	// An expired entry recomputes through Do.
	v, out, err := c.Do(context.Background(), "a", func(context.Context) (int, error) { return 9, nil })
	if err != nil || out != Miss || v != 9 {
		t.Fatalf("Do after expiry = %d,%s,%v; want 9,miss,nil", v, out, err)
	}
}

func TestDoSingleflight(t *testing.T) {
	c := New[int](8, 0)
	const waiters = 16
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, waiters)
	outcomes := make([]Outcome, waiters)

	wg.Add(1)
	go func() {
		defer wg.Done()
		v, out, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
			computes.Add(1)
			close(started)
			<-release
			return 42, nil
		})
		if err != nil {
			t.Error(err)
		}
		results[0], outcomes[0] = v, out
	}()
	<-started
	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do(context.Background(), "k", func(context.Context) (int, error) {
				computes.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], outcomes[i] = v, out
		}(i)
	}
	// Wait until every follower has joined the flight, then release.
	for c.Stats().Coalesced < waiters-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	misses, coalesced := 0, 0
	for i := 0; i < waiters; i++ {
		if results[i] != 42 {
			t.Fatalf("result[%d] = %d, want 42", i, results[i])
		}
		switch outcomes[i] {
		case Miss:
			misses++
		case Coalesced:
			coalesced++
		}
	}
	if misses != 1 || coalesced != waiters-1 {
		t.Fatalf("misses=%d coalesced=%d, want 1/%d", misses, coalesced, waiters-1)
	}
	// Follow-up call is a plain hit.
	if _, out, _ := c.Do(context.Background(), "k", nil); out != Hit {
		t.Fatalf("follow-up outcome = %s, want hit", out)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[int](4, 0)
	boom := errors.New("boom")
	calls := 0
	compute := func(context.Context) (int, error) {
		calls++
		if calls == 1 {
			return 0, boom
		}
		return 7, nil
	}
	if _, out, err := c.Do(context.Background(), "k", compute); !errors.Is(err, boom) || out != Miss {
		t.Fatalf("first Do = %s,%v", out, err)
	}
	v, out, err := c.Do(context.Background(), "k", compute)
	if err != nil || out != Miss || v != 7 {
		t.Fatalf("retry = %d,%s,%v; want 7,miss,nil", v, out, err)
	}
	if calls != 2 {
		t.Fatalf("compute calls = %d, want 2", calls)
	}
}

// TestDoPanicReleasesKey: a compute that panics must not leave its
// flight behind. The panic reaches the leader, a caller coalesced onto
// the flight gets an error instead of waiting out its deadline, nothing
// is cached, and the next Do computes again.
func TestDoPanicReleasesKey(t *testing.T) {
	c := New[int](4, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	panicked := make(chan any)
	go func() {
		defer func() { panicked <- recover() }()
		_, _, _ = c.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	follower := make(chan error)
	go func() {
		_, out, err := c.Do(ctx, "k", func(context.Context) (int, error) {
			t.Error("a caller coalesced onto a live flight ran its own compute")
			return 0, nil
		})
		if out != Coalesced {
			t.Errorf("follower outcome = %s, want coalesced", out)
		}
		follower <- err
	}()
	for c.Stats().Coalesced == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if r := <-panicked; r != "boom" {
		t.Fatalf("leader recovered %v, want the compute's panic", r)
	}
	if err := <-follower; !errors.Is(err, errComputePanicked) {
		t.Fatalf("follower err = %v, want errComputePanicked", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("a panicked compute left a cache entry")
	}
	v, out, err := c.Do(ctx, "k", func(context.Context) (int, error) { return 7, nil })
	if err != nil || out != Miss || v != 7 {
		t.Fatalf("Do after the panic = %d,%s,%v; want 7,miss,nil", v, out, err)
	}
}

func TestCoalescedWaiterHonorsContext(t *testing.T) {
	c := New[int](4, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func(context.Context) (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, out, err := c.Do(ctx, "k", nil)
	if !errors.Is(err, context.Canceled) || out != Coalesced {
		t.Fatalf("cancelled waiter = %s,%v; want coalesced,context.Canceled", out, err)
	}
}

func TestConcurrentMixedKeysUnderRace(t *testing.T) {
	c := New[string](16, time.Hour)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				v, _, err := c.Do(context.Background(), key, func(context.Context) (string, error) {
					return "v" + key, nil
				})
				if err != nil || v != "v"+key {
					t.Errorf("Do(%s) = %q, %v", key, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("cache over bound: %d entries", c.Len())
	}
}
