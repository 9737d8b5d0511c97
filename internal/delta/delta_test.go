package delta_test

import (
	"fmt"
	"testing"

	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
	"hypre/internal/workload"
)

// testProfile builds a small positive profile over the synthetic network:
// venue, year-range, and author predicates — the three predicate shapes the
// extraction rules produce (left-column equality, left-column range, and
// join-side equality), so every delta path gets exercised.
func testProfile(t *testing.T, net *workload.Network) []hypre.ScoredPred {
	t.Helper()
	specs := []struct {
		pred      string
		intensity float64
	}{
		{fmt.Sprintf("dblp.venue=%q", net.Venues[0]), 0.9},
		{fmt.Sprintf("dblp.venue=%q", net.Venues[1]), 0.8},
		{fmt.Sprintf("dblp.venue=%q", net.Venues[2]), 0.55},
		{"dblp.year>=2005", 0.7},
		{"dblp.year<=1999", 0.35},
		{"dblp_author.aid=0", 0.65},
		{"dblp_author.aid=1", 0.5},
		{"dblp_author.aid=3", 0.4},
		{"dblp.year=2010", 0.3},
	}
	prefs := make([]hypre.ScoredPred, 0, len(specs))
	for _, s := range specs {
		sp, err := hypre.NewScoredPred(s.pred, s.intensity)
		if err != nil {
			t.Fatalf("bad predicate %q: %v", s.pred, err)
		}
		prefs = append(prefs, sp)
	}
	return prefs
}

func smallNet(t *testing.T, seed int64) *workload.Network {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.NumPapers = 900
	cfg.NumAuthors = 250
	cfg.NumVenues = 12
	net, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// rebuildSurvivors copies every table's live rows into a brand-new store —
// fresh row ids, fresh dictionaries, fresh zone maps, no tombstones — the
// "fresh store rebuilt from the surviving rows" oracle.
func rebuildSurvivors(t *testing.T, db *relstore.DB) *relstore.DB {
	t.Helper()
	out := relstore.NewDB()
	for _, name := range db.TableNames() {
		src := db.Table(name)
		schema := src.Schema()
		dst, err := out.CreateTable(name, schema.Columns...)
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < src.Len(); id++ {
			if !src.Alive(id) {
				continue
			}
			row := make([]predicate.Value, len(schema.Columns))
			for i, c := range schema.Columns {
				row[i] = src.Value(id, c.Name)
			}
			if _, err := dst.Insert(row...); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, ix := range []struct{ table, col string }{
		{"dblp", "pid"}, {"dblp_author", "pid"}, {"dblp_author", "aid"},
	} {
		if err := out.Table(ix.table).BuildIndex(ix.col); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// pepsOver builds the pair table over ev — scanning only what ev does not
// already cache — and ranks with PEPS.
func pepsOver(t *testing.T, ev *combine.Evaluator, prefs []hypre.ScoredPred, k int, v combine.Variant) combine.TopKResult {
	t.Helper()
	pt, err := combine.BuildPairTable(prefs, ev)
	if err != nil {
		t.Fatal(err)
	}
	res, err := combine.PEPS(prefs, pt, ev, k, v)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// maintainedTopK ranks over the maintained evaluator's bitmaps: every
// preference must still be resident (so the pair table is built from what
// Sync patched, with no store scan), then a fresh pair table and PEPS.
func maintainedTopK(t *testing.T, ev *combine.Evaluator, prefs []hypre.ScoredPred, k int, v combine.Variant) combine.TopKResult {
	t.Helper()
	if got := ev.MemStats().Preds; got != len(prefs) {
		t.Fatalf("maintained evaluator holds %d of %d preferences; the ranking would rescan the store", got, len(prefs))
	}
	return pepsOver(t, ev, prefs, k, v)
}

// freshTopKOn runs the full pipeline (materialize + pair table + PEPS) on
// an arbitrary store.
func freshTopKOn(t *testing.T, db *relstore.DB, prefs []hypre.ScoredPred, k int) combine.TopKResult {
	t.Helper()
	return pepsOver(t, combine.NewEvaluator(db, workload.BaseQuery, "dblp.pid"), prefs, k, combine.Complete)
}

// freshTopK answers the same query by full rematerialization over the
// store's current state — the oracle every Sync is compared against.
func freshTopK(t *testing.T, net *workload.Network, prefs []hypre.ScoredPred, k int) combine.TopKResult {
	t.Helper()
	return freshTopKOn(t, net.DB, prefs, k)
}

func assertSameRanking(t *testing.T, tag string, got, want combine.TopKResult) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: got %d tuples, want %d", tag, len(got.Tuples), len(want.Tuples))
	}
	for i := range got.Tuples {
		if got.Tuples[i].PID != want.Tuples[i].PID ||
			got.Tuples[i].Intensity != want.Tuples[i].Intensity {
			t.Fatalf("%s: rank %d: got (pid %d, %v), want (pid %d, %v)", tag, i,
				got.Tuples[i].PID, got.Tuples[i].Intensity,
				want.Tuples[i].PID, want.Tuples[i].Intensity)
		}
	}
}

// TestSyncMatchesRematerialize is the acceptance property: after every
// mutation batch, the incrementally maintained evaluator's bitmaps yield
// top-k rankings (fresh pair table, both PEPS variants) byte-identical to a
// full rematerialization over the mutated store.
func TestSyncMatchesRematerialize(t *testing.T) {
	const k = 60
	for seed := int64(1); seed <= 4; seed++ {
		net := smallNet(t, seed)
		prefs := testProfile(t, net)
		ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
		m, err := delta.NewMaintainer(ev, prefs)
		if err != nil {
			t.Fatal(err)
		}
		scfg := workload.DefaultStreamConfig()
		scfg.Seed = seed * 101
		stream, err := workload.NewUpdateStream(net, scfg)
		if err != nil {
			t.Fatal(err)
		}
		sawChange := false
		for batch := 0; batch < 6; batch++ {
			if _, err := stream.Apply(40); err != nil {
				t.Fatal(err)
			}
			st, err := m.Sync()
			if err != nil {
				t.Fatal(err)
			}
			if st.FullRebuild {
				t.Fatalf("seed %d batch %d: unexpected full rebuild", seed, batch)
			}
			if st.ChangedPreds > 0 {
				sawChange = true
			}
			inc := maintainedTopK(t, ev, prefs, k, combine.Complete)
			tag := fmt.Sprintf("seed %d batch %d", seed, batch)
			assertSameRanking(t, tag, inc, freshTopK(t, net, prefs, k))

			// The strongest oracle: a brand-new store holding only the
			// surviving rows (no tombstones, compacted ids) must rank
			// byte-identically too.
			if batch == 2 || batch == 5 {
				rebuilt := rebuildSurvivors(t, net.DB)
				assertSameRanking(t, tag+" (rebuilt store)", inc,
					freshTopKOn(t, rebuilt, prefs, k))
			}

			// The approximate variant must agree with its own fresh oracle
			// too (same pair table, different seed filter).
			incA := maintainedTopK(t, ev, prefs, k, combine.Approximate)
			rematA := pepsOver(t, combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid"),
				prefs, k, combine.Approximate)
			assertSameRanking(t, tag+" (approximate)", incA, rematA)
		}
		if !sawChange {
			t.Fatalf("seed %d: stream never changed a predicate bitmap; test is vacuous", seed)
		}
	}
}

// TestSyncNoChanges proves an idle Sync is a no-op (two epoch reads).
func TestSyncNoChanges(t *testing.T) {
	net := smallNet(t, 9)
	prefs := testProfile(t, net)
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	m, err := delta.NewMaintainer(ev, prefs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if st.TouchedRows != 0 || st.ChangedPreds != 0 || st.FullRebuild {
		t.Fatalf("idle sync did work: %+v", st)
	}
}

// TestKeyColumnUpdateForcesRebuild: rewriting the base table's key column
// cannot be patched incrementally and must fall back loudly.
func TestKeyColumnUpdateForcesRebuild(t *testing.T) {
	net := smallNet(t, 11)
	prefs := testProfile(t, net)
	ev := combine.NewEvaluator(net.DB, workload.BaseQuery, "dblp.pid")
	m, err := delta.NewMaintainer(ev, prefs)
	if err != nil {
		t.Fatal(err)
	}
	dblp := net.DB.Table("dblp")
	oldPid := dblp.Value(0, "pid").AsInt()
	if err := dblp.UpdateCol(0, "pid", predicate.Int(oldPid+1_000_000)); err != nil {
		t.Fatal(err)
	}
	st, err := m.Sync()
	if err != nil {
		t.Fatal(err)
	}
	if !st.FullRebuild {
		t.Fatalf("key-column update did not force a rebuild: %+v", st)
	}
	// The rebuild dropped every cached bitmap (the pid dictionary survives),
	// so this ranking rematerializes through the maintained evaluator.
	if got := ev.MemStats().Preds; got != 0 {
		t.Fatalf("rebuild left %d cached predicates", got)
	}
	assertSameRanking(t, "post-rebuild", pepsOver(t, ev, prefs, 40, combine.Complete),
		freshTopK(t, net, prefs, 40))
}
