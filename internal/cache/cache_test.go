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

func resultEntry(fp combine.Fingerprint, k int, size int64, preds ...int32) *entry {
	e := &entry{
		key:    entryKey{fp: fp, k: int32(k)},
		tuples: []combine.ScoredTuple{{PID: 1, Intensity: 0.5}},
		size:   size,
	}
	for _, id := range preds {
		e.prefs = append(e.prefs, entryPref{id: id, intensity: 0.5})
	}
	return e
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
	if ev := c.counters.Evictions.Load(); ev != 7 {
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

// TestCacheSweep: one sweep keeps, drops and replaces entries as fix
// decides. A replacement takes over its predecessor's key, LRU slot and
// byte charge, and a reader holding the predecessor still sees the old
// answer.
func TestCacheSweep(t *testing.T) {
	c := NewCache(Config{MaxBytes: 1000, Shards: 1})
	c.put(resultEntry(fpOf(1), 10, 100, 0, 1))
	c.put(resultEntry(fpOf(2), 10, 100, 1, 2))
	c.put(resultEntry(fpOf(3), 10, 100, 2))
	c.put(resultEntry(fpOf(4), 10, 100, 3))
	held, _ := c.get(entryKey{fp: fpOf(3), k: 10})
	c.get(entryKey{fp: fpOf(1), k: 10}) // LRU order, hot to cold: 1 3 4 2

	dropped, replaced := c.sweep(func(e *entry) *entry {
		switch e.key.fp {
		case fpOf(2):
			return nil
		case fpOf(3):
			n := *e
			n.tuples = []combine.ScoredTuple{{PID: 7, Intensity: 0.9}}
			n.size = 300
			return &n
		}
		return e
	})
	if dropped != 1 || replaced != 1 {
		t.Fatalf("sweep dropped %d replaced %d, want 1 and 1", dropped, replaced)
	}
	if entries, bytes := c.Stats(); entries != 3 || bytes != 500 {
		t.Fatalf("after sweep: %d entries, %d bytes; want 3 and 500", entries, bytes)
	}
	if held.tuples[0].PID != 1 {
		t.Fatalf("the swept-out entry was written in place")
	}
	var order []byte
	for e := c.shards[0].head; e != nil; e = e.next {
		order = append(order, e.key.fp[0])
	}
	if string(order) != "\x01\x03\x04" {
		t.Fatalf("LRU order %v, want the replacement in its predecessor's slot", order)
	}
	if e, ok := c.get(entryKey{fp: fpOf(3), k: 10}); !ok || e.tuples[0].PID != 7 {
		t.Fatalf("replacement not served")
	}

	// A replacement that grows the shard past budget evicts from the cold
	// end: 4 is now the coldest.
	c.sweep(func(e *entry) *entry {
		if e.key.fp != fpOf(1) {
			return e
		}
		n := *e
		n.size = 700
		return &n
	})
	if _, ok := c.get(entryKey{fp: fpOf(4), k: 10}); ok {
		t.Fatalf("over-budget shard kept its coldest entry")
	}
	if _, bytes := c.Stats(); bytes > 1000 {
		t.Fatalf("byte charge %d exceeds the 1000 budget", bytes)
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
