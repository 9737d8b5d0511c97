package relstore

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// TestConcurrentMutateAndScan is the race test for the epoch/snapshot
// discipline: writers Insert/Update/Delete on both tables of a join while
// readers run the full scan surface — counts, distinct values, attr scans
// with and without a spill, MatchLeftRowSet, lazy index builds and
// join-entry repairs. Every scan holds the tables'
// shared state locks for its duration, so under -race this must be clean
// and every scan must observe internally consistent state (no partial
// batches, no torn rows). Run it with -race (CI does).
func TestConcurrentMutateAndScan(t *testing.T) {
	db := NewDB()
	lt, err := db.CreateTable("lt",
		Column{Name: "k", Kind: predicate.KindInt},
		Column{Name: "a", Kind: predicate.KindInt},
		Column{Name: "s", Kind: predicate.KindString})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := db.CreateTable("rt",
		Column{Name: "k", Kind: predicate.KindInt},
		Column{Name: "x", Kind: predicate.KindInt})
	if err != nil {
		t.Fatal(err)
	}
	seedRng := rand.New(rand.NewSource(77))
	for i := 0; i < 800; i++ {
		if _, err := lt.Insert(predicate.Int(int64(i%97)), predicate.Int(int64(seedRng.Intn(50))),
			predicate.String([]string{"A", "B", "C"}[seedRng.Intn(3)])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 300; i++ {
		if _, err := rt.Insert(predicate.Int(int64(i%97)), predicate.Int(int64(seedRng.Intn(20)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := lt.BuildIndex("k"); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var writers, readers sync.WaitGroup

	// Two writers, one per table.
	writers.Add(2)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(1))
		for op := 0; op < 400; op++ {
			switch rng.Intn(3) {
			case 0:
				if _, err := lt.Insert(predicate.Int(int64(rng.Intn(97))),
					predicate.Int(int64(rng.Intn(50))), predicate.String("Z")); err != nil {
					t.Error(err)
					return
				}
			case 1:
				lt.Delete(rng.Intn(lt.Len()))
			default:
				id := rng.Intn(lt.Len())
				if lt.Alive(id) {
					// The row may die between the check and the update;
					// the update then fails loudly, which is fine.
					_ = lt.UpdateCol(id, "a", predicate.Int(int64(rng.Intn(50))))
				}
			}
		}
	}()
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(2))
		for op := 0; op < 400; op++ {
			switch rng.Intn(3) {
			case 0:
				if _, err := rt.Insert(predicate.Int(int64(rng.Intn(97))),
					predicate.Int(int64(rng.Intn(20)))); err != nil {
					t.Error(err)
					return
				}
			case 1:
				rt.Delete(rng.Intn(rt.Len()))
			default:
				id := rng.Intn(rt.Len())
				if rt.Alive(id) {
					_ = rt.UpdateCol(id, "x", predicate.Int(int64(rng.Intn(20))))
				}
			}
		}
	}()

	// Readers hammer the scan surface until the writers finish.
	join := &JoinSpec{Table: "rt", LeftCol: "k", RightCol: "k"}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for !done.Load() {
				where := &predicate.Cmp{Attr: "a", Op: predicate.OpGe,
					Val: predicate.Int(int64(rng.Intn(50)))}
				q := Query{From: "lt", Where: where}
				if rng.Intn(2) == 0 {
					q.Join = join
				}
				if _, err := db.Count(q); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.DistinctValues(q, "lt.a"); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.ScanAttrRowSet(q, "lt.a", 0, func(int, int64) {}); err != nil {
					t.Error(err)
					return
				}
				// Set-valued scans over the joined query repair the join
				// entry beside the writers.
				for _, jq := range []Query{{From: "lt", Join: join, Where: where}, {From: "lt", Join: join}} {
					if _, err := db.ScanAttrRowSet(jq, "lt.a", -1, nil); err != nil {
						t.Error(err)
						return
					}
				}
				touched := bitset.New()
				for i := 0; i < 40; i++ {
					touched.Add(rng.Intn(lt.Len()))
				}
				if _, err := db.MatchLeftRowSet(q, touched); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(10 + r))
	}

	// Readers keep scanning until both writers drained their op budget.
	writers.Wait()
	done.Store(true)
	readers.Wait()

	// Post-quiescence sanity: the store still answers exactly.
	liveCount := 0
	for id := 0; id < lt.Len(); id++ {
		if lt.Alive(id) {
			liveCount++
		}
	}
	if lt.Live() != liveCount {
		t.Fatalf("Live() = %d, want %d", lt.Live(), liveCount)
	}
}
