package delta_test

import (
	"context"
	"fmt"
	"testing"

	"hypre/internal/cache"
	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/relstore"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

// TestSyncThroughCompactionNoRebuilds is the write-path acceptance property
// for compaction absorption: with threshold-triggered compaction live on
// the store and a delete-heavy stream forcing it to fire repeatedly, every
// Sync must stay on the incremental path (no full rebuilds — the remap and
// the refresh's dropped-pid pass absorb the row-id churn) and keep the
// top-k ranking byte-identical to a full rematerialization over the
// compacted store. A result cache rides the same Syncs over sub-profiles
// of the maintained profile: every answer it serves from an entry must
// equal uncached evaluation.
func TestSyncThroughCompactionNoRebuilds(t *testing.T) {
	const k = 60
	var repaired int64
	for seed := int64(11); seed <= 13; seed++ {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		cfg.NumPapers = 1500 // past one block, so compaction is eligible
		cfg.NumAuthors = 250
		cfg.NumVenues = 12
		var sc relstore.StoreCounters
		net, err := workload.GenerateWith(cfg,
			relstore.WithCompaction(0.04),
			relstore.WithChangeLogCap(1<<15),
			relstore.WithStoreCounters(&sc))
		if err != nil {
			t.Fatal(err)
		}
		prefs := testProfile(t, net)
		ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
		m, err := delta.NewMaintainer(ev, prefs)
		if err != nil {
			t.Fatal(err)
		}
		srv := cache.NewServer(ev, cache.Config{})
		m.AttachCache(srv)
		subs := [][]hypre.ScoredPred{prefs, prefs[:3], prefs[3:6], prefs[5:]}
		scfg := workload.DefaultStreamConfig()
		scfg.Seed = seed * 131
		scfg.InsertFrac, scfg.DeleteFrac, scfg.UpdateFrac, scfg.LinkFrac = 0.20, 0.45, 0.25, 0.10
		stream, err := workload.NewUpdateStream(net, scfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := stream.PlanPartitions(1, 8*60)[0]
		absorbed := 0
		for batch := 0; batch < 8; batch++ {
			commitOps(t, net.DB, ops[batch*60:(batch+1)*60])
			st, err := m.Sync()
			if err != nil {
				t.Fatal(err)
			}
			if st.FullRebuild {
				t.Fatalf("seed %d batch %d: full rebuild (%s) despite compaction absorption",
					seed, batch, st.RebuildCause)
			}
			absorbed += st.Compactions
			inc := maintainedTopK(t, ev, prefs, k, combine.Complete)
			tag := fmt.Sprintf("seed %d batch %d (%d compactions absorbed)", seed, batch, st.Compactions)
			assertSameRanking(t, tag, inc, freshTopK(t, net, prefs, k))
			for i, sub := range subs {
				for _, sk := range []int{5, k} {
					got, out, err := topK(srv, sub, sk, nil)
					if err != nil {
						t.Fatal(err)
					}
					want := uncachedTopK(t, net, sub, sk)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%s: sub-profile %d k=%d served %v (%v), want %v", tag, i, sk, got, out, want)
					}
				}
			}
		}
		snap := srv.Counters().Snapshot()
		if snap.Hits == 0 {
			t.Fatalf("seed %d: no answer was served from a cache entry", seed)
		}
		repaired += snap.Repaired
		if absorbed == 0 {
			t.Fatalf("seed %d: no base-table compaction absorbed (%d store-wide); test is vacuous",
				seed, sc.Compactions.Load())
		}
	}
	if repaired == 0 {
		t.Fatal("no Sync repaired a cache entry")
	}
}

// TestMaterializeAcrossUnsyncedCompaction: a predicate first materialized
// after a base-table compaction the evaluator has not absorbed yet must not
// read the compacted row ids through the old row plumbing. The scan is
// taken between the compacting commit and its Sync; after the Sync the
// server ranks a miss straight from that bitmap, so a bitmap built from the
// wrong rows would be served.
func TestMaterializeAcrossUnsyncedCompaction(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 17
	cfg.NumPapers = 1500 // past one block, so compaction is eligible
	cfg.NumAuthors = 250
	cfg.NumVenues = 12
	var sc relstore.StoreCounters
	net, err := workload.GenerateWith(cfg, relstore.WithCompaction(0.04), relstore.WithStoreCounters(&sc))
	if err != nil {
		t.Fatal(err)
	}
	prefs := testProfile(t, net)
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := cache.NewServer(ev, cache.Config{})
	m.AttachCache(srv)
	if _, _, err := topK(srv, prefs[:3], 10, nil); err != nil {
		t.Fatal(err)
	}

	// Delete the first 100 papers in one commit: 6.7% dead crosses the
	// threshold, and every surviving row moves down by up to 100 ids.
	dblp := net.DB.Table("dblp")
	b := net.DB.NewBatch()
	for row := 0; row < 100; row++ {
		b.DeleteByKey("dblp", "pid", dblp.Value(row, "pid"))
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if sc.Compactions.Load() == 0 {
		t.Fatal("the delete did not compact the base table; test is vacuous")
	}
	fresh := prefs[3:6]
	if err := ev.MaterializeAll(fresh); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{10, 1000} {
		tr := obs.NewTrace()
		got, out, err := topK(srv, fresh, k, tr)
		if err != nil {
			t.Fatal(err)
		}
		want := uncachedTopK(t, net, fresh, k)
		if out != cache.Miss || tr.Exec != "resident" {
			t.Fatalf("k=%d: outcome %v via %q, want a miss ranked from the resident bitmaps", k, out, tr.Exec)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("k=%d: served %v, want %v", k, got, want)
		}
	}
}

// uncachedTopK ranks the canonical form of prefs on a fresh evaluator with
// BuildLists + TA: the answer the cache server must serve.
// topK serves a raw profile the way hypred does: canonicalize it, then
// TopKContext.
func topK(srv *cache.Server, prefs []hypre.ScoredPred, k int, tr *obs.Trace) ([]combine.ScoredTuple, cache.Outcome, error) {
	return srv.TopKContext(context.Background(), combine.Canonicalize(prefs), k, tr)
}

func uncachedTopK(t *testing.T, net *workload.Network, prefs []hypre.ScoredPred, k int) []combine.ScoredTuple {
	t.Helper()
	canon, _ := combine.CanonicalProfile(prefs)
	lists, err := topk.BuildLists(combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid"), canon)
	if err != nil {
		t.Fatal(err)
	}
	return lists.TA(k)
}
