package delta_test

import (
	"math/rand"
	"sync"
	"testing"

	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/predicate"
	"hypre/internal/workload"
)

// TestShardedEvalVsMutationRace races the partition-sharded evaluation
// paths against online store mutations and incremental Sync, for the race
// detector: a mutator thread commits update/delete/insert batches and (on
// its own maintainer, queries and Sync being single-threaded by contract)
// drains them incrementally, while reader threads concurrently run the
// sharded pipeline end to end — the materialization pool's scans under the
// store's shared state locks, the (span × anchor) pair-count sweep, and
// class-range PEPS — each on a private evaluator so every store read races a
// commit. Results are checked for sanity only; byte-equivalence against
// the serial path is proven by the quiescent suites.
func TestShardedEvalVsMutationRace(t *testing.T) {
	net := smallNet(t, 11)
	prefs := testProfile(t, net)
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	ev.Workers = 4
	m, err := delta.NewMaintainer(ev, prefs)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // mutator + incremental maintainer
		defer wg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(5))
		dblp := net.DB.Table("dblp")
		links := net.DB.Table("dblp_author")
		for round := 0; round < 30; round++ {
			for op := 0; op < 8; op++ {
				switch rng.Intn(3) {
				case 0:
					_ = dblp.UpdateCol(rng.Intn(dblp.Len()), "year",
						predicate.Int(int64(1995+rng.Intn(20))))
				case 1:
					dblp.Delete(rng.Intn(dblp.Len()))
				default:
					if _, err := links.Insert(
						predicate.Int(int64(rng.Intn(dblp.Len()))),
						predicate.Int(int64(rng.Intn(10))),
					); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if _, err := m.Sync(); err != nil {
				t.Error(err)
				return
			}
			// Rank over the maintained bitmaps (fresh pair table), as a
			// reader of the maintained evaluator would.
			pt, err := combine.BuildPairTable(prefs, ev)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := combine.PEPS(prefs, pt, ev, 25, combine.Complete); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
				rev.Workers = 2 + r
				pt, err := combine.BuildPairTable(prefs, rev)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := combine.PEPSSharded(prefs, pt, rev, 25, combine.Complete)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Tuples) > 25 {
					t.Errorf("sharded PEPS returned %d tuples for k=25", len(res.Tuples))
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
