package cache

import (
	"context"
	"fmt"
	"sync"

	"hypre/internal/combine"
)

// flightGroup collapses concurrent evaluations of the same (fingerprint, k)
// into one: the first arrival becomes the leader and runs the evaluation;
// every later arrival for the same key blocks on the leader's completion
// and shares the answer. N sessions asking the same cold profile at once
// cost one store scan, not N — the dedup half of the caching tier.
//
// Waiters are cancellable: a waiter whose context ends (an HTTP client
// disconnecting mid-wait) unblocks immediately with ctx.Err(). The leader is
// deliberately NOT cancellable — its work is shared, so it always completes
// and publishes even when every waiter (or its own caller's context) has
// given up; the next request for the fingerprint then hits the cache.
//
// A leader whose evaluation panics still ends its flight: the key is
// released, parked waiters receive an error naming the panic, and the panic
// continues up the leader's own stack (net/http turns it into that one
// request's failure). Without this the map entry would outlive the leader
// and every later request for the fingerprint would park on it forever.
type flightGroup struct {
	mu sync.Mutex
	m  map[entryKey]*flightCall
}

type flightCall struct {
	done    chan struct{} // closed when val/err are set
	val     []combine.ScoredTuple
	err     error
	waiters int // arrivals that joined this flight; guarded by flightGroup.mu
}

// do runs fn once per concurrent key: the leader (leader=true) executes fn,
// waiters receive the leader's value and error, or their own ctx.Err() if
// they stop waiting first. The shared value is the cache-internal slice;
// callers copy before handing it out.
func (g *flightGroup) do(ctx context.Context, key entryKey, fn func() ([]combine.ScoredTuple, error)) (val []combine.ScoredTuple, leader bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[entryKey]*flightCall)
	}
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, false, c.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// The key is released before done closes, so whoever observes the
	// flight's outcome and asks again leads a fresh flight.
	defer func() {
		r := recover()
		if r != nil {
			c.val, c.err = nil, fmt.Errorf("cache: single-flight leader panicked: %v", r)
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = fn()
	return c.val, true, c.err
}
