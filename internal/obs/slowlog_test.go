package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSlowLogThresholdGate(t *testing.T) {
	l := NewSlowLog(time.Millisecond, 8)
	l.Observe("hit", "fast", 10, 100*time.Microsecond, nil)
	if len(l.Snapshot()) != 0 || l.TotalLogged() != 0 {
		t.Fatal("below-threshold query was logged")
	}
	l.Observe("miss", "slow", 10, 2*time.Millisecond, nil)
	l.Observe("miss", "exact", 10, time.Millisecond, nil) // at-threshold keeps
	if len(l.Snapshot()) != 2 {
		t.Fatalf("len = %d, want 2", len(l.Snapshot()))
	}
}

func TestSlowLogWraparound(t *testing.T) {
	const capacity = 4
	l := NewSlowLog(0, capacity)
	for i := 1; i <= 10; i++ {
		l.Observe("miss", fmt.Sprintf("q%d", i), i, time.Duration(i)*time.Millisecond, nil)
	}
	if len(l.Snapshot()) != capacity {
		t.Fatalf("len = %d, want %d", len(l.Snapshot()), capacity)
	}
	if l.TotalLogged() != 10 {
		t.Fatalf("total = %d, want 10", l.TotalLogged())
	}
	got := l.Snapshot()
	if len(got) != capacity {
		t.Fatalf("snapshot len = %d, want %d", len(got), capacity)
	}
	// Oldest-first: the ring keeps the newest capacity entries (7..10).
	for i, e := range got {
		wantSeq := uint64(10 - capacity + 1 + i)
		wantQ := fmt.Sprintf("q%d", wantSeq)
		if e.Seq != wantSeq || e.Query != wantQ {
			t.Fatalf("entry %d = seq %d query %q, want seq %d query %q",
				i, e.Seq, e.Query, wantSeq, wantQ)
		}
	}
}

// Nil slow logs are inert — the disabled path.
func TestSlowLogNil(t *testing.T) {
	var l *SlowLog
	l.Observe("miss", "q", 1, time.Hour, nil)
	if len(l.Snapshot()) != 0 || l.Snapshot() != nil || l.TotalLogged() != 0 {
		t.Fatal("nil slow log not inert")
	}
}

// Concurrent observers and snapshotters must not race (run under -race) and
// must account every above-threshold entry.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(0, 16)
	const (
		workers = 8
		perW    = 500
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = l.Snapshot()
			}
		}
	}()
	var obs sync.WaitGroup
	for w := 0; w < workers; w++ {
		obs.Add(1)
		go func(w int) {
			defer obs.Done()
			for i := 0; i < perW; i++ {
				l.Observe("miss", "q", w, time.Duration(i), nil)
			}
		}(w)
	}
	obs.Wait()
	close(stop)
	wg.Wait()
	if got := l.TotalLogged(); got != workers*perW {
		t.Fatalf("total logged = %d, want %d", got, workers*perW)
	}
	if len(l.Snapshot()) != 16 {
		t.Fatalf("len = %d, want 16", len(l.Snapshot()))
	}
}
