package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/workload"
)

// TestFlightWaiterCancelLeaderCompletes: a waiter whose context ends while
// parked behind a leader unblocks immediately with ctx.Err(); the leader is
// unaffected, finishes its evaluation, publishes to the remaining waiter, and
// the in-flight map is cleaned up.
func TestFlightWaiterCancelLeaderCompletes(t *testing.T) {
	var g flightGroup
	key := entryKey{fp: fpOf(42), k: 5}
	want := []combine.ScoredTuple{{PID: 7, Intensity: 0.9}}

	gate := make(chan struct{})    // holds the leader's fn open
	started := make(chan struct{}) // closed once the leader is inside fn

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderVal []combine.ScoredTuple
	var leaderIsLeader bool
	var leaderErr error
	go func() {
		defer wg.Done()
		leaderVal, leaderIsLeader, leaderErr = g.do(context.Background(), key, func() ([]combine.ScoredTuple, error) {
			close(started)
			<-gate
			return want, nil
		})
	}()
	<-started

	// A cancelable waiter joins the flight, then gives up.
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, leader, err := g.do(ctx, key, func() ([]combine.ScoredTuple, error) {
			t.Error("waiter must not become leader while a flight is up")
			return nil, nil
		})
		if leader {
			t.Error("canceled waiter reported leader=true")
		}
		waiterDone <- err
	}()
	// A patient waiter joins too and must still get the answer.
	patientDone := make(chan []combine.ScoredTuple, 1)
	go func() {
		val, _, err := g.do(context.Background(), key, func() ([]combine.ScoredTuple, error) { return nil, nil })
		if err != nil {
			t.Errorf("patient waiter: %v", err)
		}
		patientDone <- val
	}()

	cancel()
	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled waiter did not unblock")
	}

	// The patient waiter is still parked: the leader hasn't finished.
	select {
	case <-patientDone:
		t.Fatal("patient waiter returned before the leader completed")
	case <-time.After(10 * time.Millisecond):
	}

	close(gate)
	wg.Wait()
	if leaderErr != nil || !leaderIsLeader {
		t.Fatalf("leader: leader=%v err=%v", leaderIsLeader, leaderErr)
	}
	if len(leaderVal) != 1 || leaderVal[0] != want[0] {
		t.Fatalf("leader value = %+v, want %+v", leaderVal, want)
	}
	select {
	case val := <-patientDone:
		if len(val) != 1 || val[0] != want[0] {
			t.Fatalf("patient waiter value = %+v, want %+v", val, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("patient waiter never received the leader's answer")
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.m) != 0 {
		t.Fatalf("flight map not cleaned up: %d entries", len(g.m))
	}
}

// TestFlightCanceledBeforeJoin: a context that is already dead still lets a
// fresh arrival lead (there is nothing to wait on — leading is not waiting).
func TestFlightCanceledBeforeJoin(t *testing.T) {
	var g flightGroup
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	val, leader, err := g.do(ctx, entryKey{fp: fpOf(1), k: 1},
		func() ([]combine.ScoredTuple, error) {
			return []combine.ScoredTuple{{PID: 1, Intensity: 1}}, nil
		})
	if err != nil || !leader || len(val) != 1 {
		t.Fatalf("dead-ctx leader: val=%v leader=%v err=%v", val, leader, err)
	}
}

// TestTopKContextCancelWhileShared: a request whose context ends while parked
// behind another session's in-flight evaluation of the same fingerprint
// returns promptly with outcome SharedMiss and ctx.Err(), records nothing,
// and the flight itself still publishes — the next request Hits.
func TestTopKContextCancelWhileShared(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 21
	cfg.NumPapers = 400
	cfg.NumAuthors = 100
	cfg.NumVenues = 8
	net, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	srv := NewServer(ev, Config{})

	p, err := hypre.NewScoredPred(fmt.Sprintf("dblp.venue=%q", net.Venues[0]), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	prefs := []hypre.ScoredPred{p}
	const k = 5
	c := combine.Canonicalize(prefs)
	key := entryKey{fp: c.Fingerprint(), k: int32(k)}

	// Fabricate an in-flight leader for exactly the key TopKContext will
	// compute, so the request under test is deterministically a waiter.
	fake := &flightCall{done: make(chan struct{})}
	srv.flight.mu.Lock()
	if srv.flight.m == nil {
		srv.flight.m = make(map[entryKey]*flightCall)
	}
	srv.flight.m[key] = fake
	srv.flight.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, out, err := srv.TopKContext(ctx, c, k, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v, want context.Canceled", err)
	}
	if out != SharedMiss {
		t.Fatalf("canceled waiter outcome = %v, want SharedMiss", out)
	}
	if res != nil {
		t.Fatalf("canceled waiter returned tuples: %v", res)
	}

	// Tear the fake flight down and serve for real: the evaluation leads,
	// publishes, and a repeat is a Hit — cancellation left no residue.
	srv.flight.mu.Lock()
	delete(srv.flight.m, key)
	srv.flight.mu.Unlock()
	close(fake.done)

	first, out, err := srv.TopKTraced(prefs, k, nil)
	if err != nil || out != Miss {
		t.Fatalf("post-cancel evaluation: outcome %v err %v", out, err)
	}
	again, out, err := srv.TopKTraced(prefs, k, nil)
	if err != nil || out != Hit {
		t.Fatalf("repeat after publish: outcome %v err %v", out, err)
	}
	if len(first) != len(again) {
		t.Fatalf("hit answer diverged: %d vs %d tuples", len(first), len(again))
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("hit answer diverged at %d: %+v vs %+v", i, first[i], again[i])
		}
	}
}
