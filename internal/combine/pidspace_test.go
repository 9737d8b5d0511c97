package combine_test

import (
	"slices"
	"testing"

	"hypre/internal/bitset"
	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/topk"
)

// sparsePid sends the test store's pids 1..10 to -4<<33-5 .. 5<<33-5: the
// first half negative, the rest far past any direct-address window, so the
// dictionary serves them all from its map. It preserves order, because
// answers break grade ties by pid.
func sparsePid(pid int64) int64 { return (pid-5)<<33 - 5 }

func densePid(pid int64) int64 { return (pid+5)>>33 + 5 }

// TestPidSpaceInvariance builds the combine test store twice, with native
// pids and through sparsePid, and requires the same dense numbering and
// bitmaps from MaterializeAll, the same PEPS and RankResident answers once
// pids are mapped back, and the same RowDelta from one refresh over a batch
// that touches rows in both halves of the sparse range.
func TestPidSpaceInvariance(t *testing.T) {
	profile := combine.MaterializeProfile(t)
	for i := range profile {
		profile[i].Intensity = 0.95 - 0.05*float64(i)
	}
	identity := func(pid int64) int64 { return pid }
	native := combine.NewEvaluator(combine.BuildTestDBPids(identity), combine.BaseQuery, "dblp.pid")
	sparse := combine.NewEvaluator(combine.BuildTestDBPids(sparsePid), combine.BaseQuery, "dblp.pid")
	for _, ev := range []*combine.Evaluator{native, sparse} {
		if err := ev.MaterializeAll(profile); err != nil {
			t.Fatal(err)
		}
	}
	if native.Dict().FarLen() != 0 || sparse.Dict().FarLen() != sparse.Dict().Size() {
		t.Fatalf("far-map pids: native %d, sparse %d of %d; want 0 and all",
			native.Dict().FarLen(), sparse.Dict().FarLen(), sparse.Dict().Size())
	}
	assertSameStore(t, "materialize", profile, native, sparse)

	for _, variant := range []combine.Variant{combine.Complete, combine.Approximate} {
		var tables [2]*combine.PairTable
		for i, ev := range []*combine.Evaluator{native, sparse} {
			pt, err := combine.BuildPairTable(profile, ev)
			if err != nil {
				t.Fatal(err)
			}
			tables[i] = pt
		}
		if !slices.Equal(tables[0].Pairs, tables[1].Pairs) {
			t.Fatalf("pair tables differ:\n%v\n%v", tables[0].Pairs, tables[1].Pairs)
		}
		for _, k := range []int{1, 3, 100} {
			want, err := combine.PEPSSharded(profile, tables[0], native, k, variant)
			if err != nil {
				t.Fatal(err)
			}
			got, err := combine.PEPSSharded(profile, tables[1], sparse, k, variant)
			if err != nil {
				t.Fatal(err)
			}
			if got.AnchorsUsed != want.AnchorsUsed || got.CombosExpanded != want.CombosExpanded ||
				!slices.Equal(mapBack(got.Tuples), want.Tuples) {
				t.Fatalf("PEPS %s k=%d: sparse %+v, native %+v", variant, k, got, want)
			}
		}
	}
	assertSameRanking(t, "resident", profile, native, sparse)

	// One batch on each store: re-venue a paper from each half of the sparse
	// range, delete a third, and insert a tenth with its author link.
	var deltas [2]*combine.RowDelta
	for i, ev := range []*combine.Evaluator{native, sparse} {
		pidOf := []func(int64) int64{identity, sparsePid}[i]
		db := ev.DB()
		dblp := db.Table("dblp")
		if err := dblp.UpdateCol(1, "venue", predicate.String("INFOCOM")); err != nil { // pid 2
			t.Fatal(err)
		}
		if err := dblp.UpdateCol(7, "venue", predicate.String("VLDB")); err != nil { // pid 8
			t.Fatal(err)
		}
		dblp.Delete(3) // pid 4
		row, err := dblp.Insert(predicate.Int(pidOf(10)), predicate.String("PVLDB"), predicate.Int(2011))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Table("dblp_author").Insert(predicate.Int(pidOf(10)), predicate.Int(6)); err != nil {
			t.Fatal(err)
		}
		touched := bitset.New()
		for _, lid := range []int{1, 3, 7, row} {
			touched.Add(lid)
		}
		d, err := ev.RefreshRowSetDelta(touched, nil)
		if err != nil {
			t.Fatalf("refresh: %v", err)
		}
		deltas[i] = d
	}
	want, got := deltas[0], deltas[1]
	if !slices.Equal(got.Moved, want.Moved) || len(want.Moved) == 0 {
		t.Fatalf("RowDelta.Moved: sparse %v, native %v", got.Moved, want.Moved)
	}
	gotPIDs := make([]int64, len(got.PIDs))
	for i, pid := range got.PIDs {
		gotPIDs[i] = densePid(pid)
	}
	if !slices.Equal(gotPIDs, want.PIDs) {
		t.Fatalf("RowDelta.PIDs: sparse %v, native %v", gotPIDs, want.PIDs)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("RowDelta.Rows: sparse %d rows, native %d", len(got.Rows), len(want.Rows))
	}
	for i, r := range want.Rows {
		if g := got.Rows[i]; densePid(g.PID) != r.PID || !slices.Equal(g.IDs, r.IDs) {
			t.Fatalf("RowDelta.Rows[%d]: sparse %d %v, native %d %v", i, densePid(g.PID), g.IDs, r.PID, r.IDs)
		}
	}
	assertSameStore(t, "refresh", profile, native, sparse)
	assertSameRanking(t, "refresh", profile, native, sparse)
}

// assertSameStore compares the two evaluators' dense numbering, through
// sparsePid, and every profile bitmap bit for bit.
func assertSameStore(t *testing.T, tag string, profile []hypre.ScoredPred, native, sparse *combine.Evaluator) {
	t.Helper()
	nd, sd := native.Dict(), sparse.Dict()
	if nd.Size() != sd.Size() {
		t.Fatalf("%s: dict size sparse %d, native %d", tag, sd.Size(), nd.Size())
	}
	for i := 0; i < nd.Size(); i++ {
		if sd.PID(i) != sparsePid(nd.PID(i)) {
			t.Fatalf("%s: dense slot %d holds sparse pid %d for native pid %d", tag, i, sd.PID(i), nd.PID(i))
		}
	}
	for _, p := range profile {
		nb, err := native.PredBitmap(p)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := sparse.PredBitmap(p)
		if err != nil {
			t.Fatal(err)
		}
		if n, s := denseIDs(nb), denseIDs(sb); !slices.Equal(s, n) {
			t.Fatalf("%s: %s: sparse bits %v, native %v", tag, p.Pred, s, n)
		}
	}
}

// assertSameRanking compares topk.RankResident over both evaluators.
func assertSameRanking(t *testing.T, tag string, profile []hypre.ScoredPred, native, sparse *combine.Evaluator) {
	t.Helper()
	nr, ok := native.Resident(profile)
	if !ok {
		t.Fatalf("%s: native profile not resident", tag)
	}
	sr, ok := sparse.Resident(profile)
	if !ok {
		t.Fatalf("%s: sparse profile not resident", tag)
	}
	for _, k := range []int{1, 3, 100} {
		want := topk.RankResident(nr, profile, k, nil)
		got := topk.RankResident(sr, profile, k, nil)
		if len(want) == 0 || !slices.Equal(mapBack(got), want) {
			t.Fatalf("%s: RankResident k=%d: sparse %v, native %v", tag, k, got, want)
		}
	}
}

func denseIDs(b *bitset.Set) []int {
	var ids []int
	b.ForEach(func(i int) bool { ids = append(ids, i); return true })
	return ids
}

func mapBack(ts []combine.ScoredTuple) []combine.ScoredTuple {
	out := make([]combine.ScoredTuple, len(ts))
	for i, st := range ts {
		out[i] = combine.ScoredTuple{PID: densePid(st.PID), Intensity: st.Intensity}
	}
	return out
}
