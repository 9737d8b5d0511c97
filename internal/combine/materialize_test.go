package combine

import (
	"slices"
	"sync"
	"testing"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
)

// materializeProfile is a profile wide enough to exercise the parallel
// materialization path, mixing every scan shape: left-only string equality,
// right-only equality, left ranges, IN, NOT, and cross-side OR trees that
// defeat the vectorized decomposition and fall back to the row scan.
func materializeProfile(t *testing.T) []hypre.ScoredPred {
	t.Helper()
	texts := []string{
		`dblp.venue="INFOCOM"`,
		`dblp.venue="PVLDB"`,
		`dblp.venue="VLDB"`,
		`dblp.venue="nope"`,
		`dblp_author.aid=2`,
		`dblp_author.aid=6`,
		`dblp_author.aid=1`,
		`dblp_author.aid=99`,
		`dblp.year>=2010`,
		`dblp.year<2009`,
		`dblp.year BETWEEN 2008 AND 2011`,
		`dblp.venue IN ("VLDB", "PVLDB")`,
		`NOT (dblp.venue="VLDB")`,
		`dblp.venue="INFOCOM" AND dblp.year>=2009`,
		`dblp.venue="PVLDB" AND dblp_author.aid=2`,
		`dblp.venue="VLDB" OR dblp_author.aid=6`,
	}
	out := make([]hypre.ScoredPred, len(texts))
	for i, s := range texts {
		out[i] = mustSP(t, s, 0.5)
	}
	return out
}

// TestMaterializeAllMatchesSerial proves the bulk worker-pool path produces
// byte-identical predicate sets, dense numbering included, to one-at-a-time
// serial materialization.
func TestMaterializeAllMatchesSerial(t *testing.T) {
	profile := materializeProfile(t)

	serial := NewEvaluator(testDB(t), baseQuery, "dblp.pid")
	for _, p := range profile {
		if _, err := serial.PredBitmap(p); err != nil {
			t.Fatal(err)
		}
	}
	bulk := NewEvaluator(testDB(t), baseQuery, "dblp.pid")
	if err := bulk.MaterializeAll(profile); err != nil {
		t.Fatal(err)
	}

	for _, p := range profile {
		ss, bs := predSet(t, serial, p), predSet(t, bulk, p)
		if len(ss) != len(bs) {
			t.Fatalf("%s: serial %d pids, bulk %d", p.Pred, len(ss), len(bs))
		}
		for i := range ss {
			if ss[i] != bs[i] {
				t.Fatalf("%s: pid[%d] serial=%d bulk=%d", p.Pred, i, ss[i], bs[i])
			}
		}
		sb, _ := serial.PredBitmap(p)
		bb, _ := bulk.PredBitmap(p)
		if sb.Len() != bb.Len() {
			t.Fatalf("%s: bitmap card serial=%d bulk=%d", p.Pred, sb.Len(), bb.Len())
		}
	}
	// The dense numbering must match too (first-seen order in both modes),
	// so cross-predicate algebra gives identical intersections.
	if serial.Dict().Size() != bulk.Dict().Size() {
		t.Fatalf("dict size serial=%d bulk=%d", serial.Dict().Size(), bulk.Dict().Size())
	}
	for i := 0; i < serial.Dict().Size(); i++ {
		if serial.Dict().PID(i) != bulk.Dict().PID(i) {
			t.Fatalf("dense slot %d: serial pid %d, bulk pid %d",
				i, serial.Dict().PID(i), bulk.Dict().PID(i))
		}
	}
	for i := 0; i+1 < len(profile); i += 2 {
		c := NewCombo(profile[i]).And(profile[i+1])
		sn, err := serial.count(c)
		if err != nil {
			t.Fatal(err)
		}
		bn, err := bulk.count(c)
		if err != nil {
			t.Fatal(err)
		}
		if sn != bn {
			t.Fatalf("%s: count serial=%d bulk=%d", c, sn, bn)
		}
	}

	if bulk.Queries != len(profile) {
		t.Errorf("bulk queries = %d, want %d", bulk.Queries, len(profile))
	}
	q := bulk.Queries
	if err := bulk.MaterializeAll(profile); err != nil {
		t.Fatal(err)
	}
	if bulk.Queries != q {
		t.Errorf("re-materialization issued %d extra queries", bulk.Queries-q)
	}
}

// TestMaterializeAllConcurrentReaders hammers the materialized caches from
// many goroutines — run under -race in CI, this proves the parallel bulk
// phase leaves the evaluator in the promised read-safe state.
func TestMaterializeAllConcurrentReaders(t *testing.T) {
	profile := materializeProfile(t)
	ev := NewEvaluator(testDB(t), baseQuery, "dblp.pid")
	if err := ev.MaterializeAll(profile); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, p := range profile {
					b, err := ev.PredBitmap(p)
					if err != nil {
						t.Error(err)
						return
					}
					ev.Dict().IntSet(b)
					c := NewCombo(p).And(profile[(i+w)%len(profile)])
					if _, err := ev.comboBitmap(c); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPublishedVersionsStayPut: no publish writes a version already
// published, so a reader holding one keeps an exact view. The publishes are
// a first-sight materialization, one that refills a slot Invalidate
// emptied, one that extends the bitmap slice in place, and a refresh that
// moves a bitmap.
func TestPublishedVersionsStayPut(t *testing.T) {
	db := testDB(t)
	ev := NewEvaluator(db, baseQuery, "dblp.pid")
	p := mustSP(t, `dblp_author.aid=2`, 0.5)
	q := mustSP(t, `dblp.venue="VLDB"`, 0.5)
	r := mustSP(t, `dblp.year>=2009`, 0.5)
	var held []*version
	var was [][]*bitset.Set
	hold := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		v := ev.cur.Load()
		held, was = append(held, v), append(was, slices.Clone(v.bits))
	}
	hold(nil)
	hold(ev.MaterializeAll([]hypre.ScoredPred{p, q}))
	ev.Invalidate()
	hold(nil)
	hold(ev.MaterializeAll([]hypre.ScoredPred{p}))
	hold(ev.MaterializeAll([]hypre.ScoredPred{q})) // q's slot lies inside the last version
	hold(ev.MaterializeAll([]hypre.ScoredPred{r}))
	// Paper 2 (dblp row 1) loses author 2, so the refresh moves p.
	if err := db.Table("dblp_author").UpdateCol(2, "aid", predicate.Int(7)); err != nil {
		t.Fatal(err)
	}
	touched := bitset.New()
	touched.Add(1)
	d, err := ev.RefreshRowSetDelta(touched, nil)
	hold(err)
	if d == nil || len(d.Moved) != 1 {
		t.Fatalf("refresh delta %+v, want p moved", d)
	}
	for i, v := range held {
		if !slices.Equal(v.bits, was[i]) {
			t.Fatalf("version %d changed after it was published", i)
		}
	}
}
