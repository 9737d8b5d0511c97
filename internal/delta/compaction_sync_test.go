package delta_test

import (
	"fmt"
	"testing"

	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/relstore"
	"hypre/internal/workload"
)

// TestSyncThroughCompactionNoRebuilds is the write-path acceptance property
// for compaction absorption: with threshold-triggered compaction live on
// the store and a delete-heavy stream forcing it to fire repeatedly, every
// Sync must stay on the incremental path (no full rebuilds — the remap +
// DropPids absorption handles the row-id churn) and keep the top-k ranking
// byte-identical to a full rematerialization over the compacted store.
func TestSyncThroughCompactionNoRebuilds(t *testing.T) {
	const k = 60
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
		scfg := workload.DefaultStreamConfig()
		scfg.Seed = seed * 131
		scfg.InsertFrac, scfg.DeleteFrac, scfg.UpdateFrac, scfg.LinkFrac = 0.20, 0.45, 0.25, 0.10
		stream, err := workload.NewUpdateStream(net, scfg)
		if err != nil {
			t.Fatal(err)
		}
		absorbed := 0
		for batch := 0; batch < 8; batch++ {
			if _, err := stream.Apply(60); err != nil {
				t.Fatal(err)
			}
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
		}
		if absorbed == 0 {
			t.Fatalf("seed %d: no base-table compaction absorbed (%d store-wide); test is vacuous",
				seed, sc.Compactions.Load())
		}
	}
}
