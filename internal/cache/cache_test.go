package cache

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hypre/internal/combine"
)

func fpOf(b byte) combine.Fingerprint {
	var fp combine.Fingerprint
	fp[0] = b
	fp[15] = b
	return fp
}

func resultEntry(fp combine.Fingerprint, k int, size int64, preds ...string) *entry {
	return &entry{
		key:      entryKey{fp: fp, k: int32(k)},
		tuples:   []combine.ScoredTuple{{PID: 1, Intensity: 0.5}},
		predKeys: preds,
		size:     size,
	}
}

// TestCacheLRUByteBudget: a single-shard cache under a tight byte budget
// keeps the hot end, evicts from the cold end, counts every eviction, and
// its byte accounting never exceeds the budget.
func TestCacheLRUByteBudget(t *testing.T) {
	c := NewCache(Config{MaxBytes: 1000, Shards: 1})
	for i := 0; i < 10; i++ {
		c.put(resultEntry(fpOf(byte(i)), 10, 300))
	}
	entries, bytes := c.Stats()
	if bytes > 1000 {
		t.Fatalf("byte charge %d exceeds the 1000 budget", bytes)
	}
	if entries != 3 {
		t.Fatalf("want 3 resident entries under budget, got %d", entries)
	}
	if ev := c.Counters().Evictions.Load(); ev != 7 {
		t.Fatalf("want 7 evictions, got %d", ev)
	}
	// The survivors are the three most recent inserts.
	for i := 7; i < 10; i++ {
		if _, ok := c.get(entryKey{fp: fpOf(byte(i)), k: 10}); !ok {
			t.Fatalf("recent entry %d was evicted", i)
		}
	}
	// A get refreshes recency: touch the oldest survivor, insert one more,
	// and the untouched middle entry is the victim instead.
	c.get(entryKey{fp: fpOf(7), k: 10})
	c.put(resultEntry(fpOf(20), 10, 300))
	if _, ok := c.get(entryKey{fp: fpOf(7), k: 10}); !ok {
		t.Fatalf("recency refresh did not protect the touched entry")
	}
	if _, ok := c.get(entryKey{fp: fpOf(8), k: 10}); ok {
		t.Fatalf("LRU victim selection ignored recency")
	}
}

// TestCacheOversizedEntryNotCached: an entry larger than a shard's whole
// budget is refused instead of evicting everything.
func TestCacheOversizedEntryNotCached(t *testing.T) {
	c := NewCache(Config{MaxBytes: 1000, Shards: 1})
	c.put(resultEntry(fpOf(1), 10, 200))
	c.put(resultEntry(fpOf(2), 10, 5000))
	if _, ok := c.get(entryKey{fp: fpOf(2), k: 10}); ok {
		t.Fatalf("oversized entry was cached")
	}
	if _, ok := c.get(entryKey{fp: fpOf(1), k: 10}); !ok {
		t.Fatalf("oversized insert evicted a resident entry")
	}
}

// TestCacheRemoveWhere: the invalidation sweep drops exactly the entries
// depending on a dirty predicate.
func TestCacheRemoveWhere(t *testing.T) {
	c := NewCache(Config{MaxBytes: 1 << 20, Shards: 2})
	c.put(resultEntry(fpOf(1), 10, 100, "a", "b"))
	c.put(resultEntry(fpOf(2), 10, 100, "b", "c"))
	c.put(resultEntry(fpOf(3), 10, 100, "c"))
	dropped := c.removeWhere(func(e *entry) bool {
		for _, k := range e.predKeys {
			if k == "b" {
				return true
			}
		}
		return false
	})
	if dropped != 2 {
		t.Fatalf("want 2 dropped, got %d", dropped)
	}
	if _, ok := c.get(entryKey{fp: fpOf(3), k: 10}); !ok {
		t.Fatalf("unrelated entry was swept")
	}
	entries, _ := c.Stats()
	if entries != 1 {
		t.Fatalf("want 1 survivor, got %d", entries)
	}
}

// awaitWaiters returns once n arrivals have joined key's in-flight call.
func awaitWaiters(g *flightGroup, key entryKey, n int) {
	for {
		g.mu.Lock()
		c := g.m[key]
		joined := c != nil && c.waiters >= n
		g.mu.Unlock()
		if joined {
			return
		}
		runtime.Gosched()
	}
}

// TestFlightGroupDedup: N concurrent calls for one key run fn exactly once;
// everyone shares the leader's value.
func TestFlightGroupDedup(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	release := make(chan struct{})
	key := entryKey{fp: fpOf(9), k: 5}

	const n = 24
	var leaders atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, leader, err := g.do(context.Background(), key, func() ([]combine.ScoredTuple, error) {
				calls.Add(1)
				<-release
				return []combine.ScoredTuple{{PID: 42, Intensity: 1}}, nil
			})
			if err != nil {
				t.Error(err)
			}
			if leader {
				leaders.Add(1)
			}
			if len(val) != 1 || val[0].PID != 42 {
				t.Error("waiter received wrong value")
			}
		}()
	}
	// The leader holds the flight open until the other n-1 have joined it:
	// a straggler arriving after the flight ended would lead its own.
	awaitWaiters(&g, key, n-1)
	close(release)
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1", c)
	}
	if l := leaders.Load(); l != 1 {
		t.Fatalf("%d leaders, want 1", l)
	}
	// The key is released after the flight: a later call runs fn again.
	_, leader, _ := g.do(context.Background(), key, func() ([]combine.ScoredTuple, error) { return nil, nil })
	if !leader {
		t.Fatalf("post-flight call should lead a fresh flight")
	}
}

// TestFlightLeaderPanicReleasesKey: a leader whose fn panics re-raises on its
// own goroutine, parked waiters get an error naming the panic instead of
// blocking forever, and the key is free for the next call.
func TestFlightLeaderPanicReleasesKey(t *testing.T) {
	var g flightGroup
	key := entryKey{fp: fpOf(13), k: 5}
	started := make(chan struct{}) // closed once the leader is inside fn
	release := make(chan struct{})

	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		_, _, _ = g.do(context.Background(), key, func() ([]combine.ScoredTuple, error) {
			close(started)
			<-release
			panic("evaluator exploded")
		})
	}()
	<-started

	const waiters = 5
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, _, err := g.do(context.Background(), key, func() ([]combine.ScoredTuple, error) {
				t.Error("waiter must not lead while the flight is up")
				return nil, nil
			})
			errs <- err
		}()
	}
	awaitWaiters(&g, key, waiters)
	close(release)

	if r := <-leaderPanic; r != "evaluator exploded" {
		t.Fatalf("leader recovered %v, want the original panic value", r)
	}
	for i := 0; i < waiters; i++ {
		err := <-errs
		if err == nil || !strings.Contains(err.Error(), "evaluator exploded") {
			t.Fatalf("waiter err = %v, want one naming the panic", err)
		}
	}
	val, leader, err := g.do(context.Background(), key, func() ([]combine.ScoredTuple, error) {
		return []combine.ScoredTuple{{PID: 1, Intensity: 1}}, nil
	})
	if !leader || err != nil || len(val) != 1 {
		t.Fatalf("post-panic call: val=%v leader=%v err=%v, want a fresh leading flight", val, leader, err)
	}
}
