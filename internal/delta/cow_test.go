package delta_test

import (
	"testing"

	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/workload"
)

// TestRefreshRowsCopyOnWrite proves the delta patch discipline on the
// container-backed bitmaps: bitmaps handed out before a Sync keep their
// exact pre-mutation tuple sets (the cache swaps in patched clones, it
// never mutates in place), while the cache itself converges to what a fresh
// evaluator over the mutated store materializes. This is the property that
// makes the copy-on-write container sharing of bitset.Clone sound.
func TestRefreshRowsCopyOnWrite(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		net := smallNet(t, seed)
		prefs := testProfile(t, net)
		ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
		m, err := delta.NewMaintainer(ev, prefs)
		if err != nil {
			t.Fatal(err)
		}

		// Snapshot the handed-out bitmaps and their tuple sets.
		type snap struct {
			bm   *combine.Bitmap
			pids combine.IntSet
		}
		snaps := make([]snap, len(prefs))
		for i, p := range prefs {
			bm, err := ev.PredBitmap(p)
			if err != nil {
				t.Fatal(err)
			}
			snaps[i] = snap{bm: bm, pids: bm.ToIntSet(ev.Dict())}
		}

		// Mutate the store and let the maintainer patch the caches.
		scfg := workload.DefaultStreamConfig()
		scfg.Seed = seed * 101
		stream, err := workload.NewUpdateStream(net, scfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := stream.PlanPartitions(1, 3*48)[0]
		for batch := 0; batch < 3; batch++ {
			commitOps(t, net.DB, ops[batch*48:(batch+1)*48])
			if _, err := m.Sync(); err != nil {
				t.Fatal(err)
			}
		}

		// Old bitmaps must be byte-identical to their snapshots: the patch
		// went through clones, never through the aliased containers.
		for i := range snaps {
			got := snaps[i].bm.ToIntSet(ev.Dict())
			if len(got) != len(snaps[i].pids) {
				t.Fatalf("seed %d: pred %d old bitmap mutated: %d tuples, had %d",
					seed, i, len(got), len(snaps[i].pids))
			}
			for j := range got {
				if got[j] != snaps[i].pids[j] {
					t.Fatalf("seed %d: pred %d old bitmap tuple %d = %d, had %d",
						seed, i, j, got[j], snaps[i].pids[j])
				}
			}
		}

		// The patched cache must agree with a fresh evaluator on the
		// mutated store.
		ev2 := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
		if err := ev2.MaterializeAll(prefs); err != nil {
			t.Fatal(err)
		}
		for i, p := range prefs {
			cb, err := ev.PredBitmap(p)
			if err != nil {
				t.Fatal(err)
			}
			wb, err := ev2.PredBitmap(p)
			if err != nil {
				t.Fatal(err)
			}
			cur, want := cb.ToIntSet(ev.Dict()), wb.ToIntSet(ev2.Dict())
			if len(cur) != len(want) {
				t.Fatalf("seed %d: pred %d patched set has %d tuples, fresh store says %d",
					seed, i, len(cur), len(want))
			}
			for j := range cur {
				if cur[j] != want[j] {
					t.Fatalf("seed %d: pred %d patched tuple %d = %d, want %d",
						seed, i, j, cur[j], want[j])
				}
			}
		}
	}
}
