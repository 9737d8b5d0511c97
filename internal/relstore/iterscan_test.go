package relstore

import (
	"errors"
	"math/rand"
	"testing"

	"hypre/internal/predicate"
)

// The streaming block iterator must emit exactly the (row, attr) stream the
// materialized scan path produces, for every query shape it accepts —
// randomized tables (all value kinds, NaNs, tombstones), random predicate
// trees, joined and unjoined, across both plan modes (zone-map scan and
// index candidates).
func TestAttrRowIterMatchesScan(t *testing.T) {
	supported := 0
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		nl := []int{0, 1, 300, 1023, 1024, 2600}[rng.Intn(6)]
		nr := []int{0, 40, 200}[rng.Intn(3)]
		lt, _ := buildPropTables(t, rng, db, "lt", []string{"k", "a", "s"}, nl)
		rt, _ := buildPropTables(t, rng, db, "rt", []string{"k", "x"}, nr)
		if rng.Float64() < 0.5 {
			if err := lt.BuildIndex("a"); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < nl/10; i++ {
			lt.Delete(rng.Intn(nl))
		}
		for i := 0; i < nr/10; i++ {
			rt.Delete(rng.Intn(nr))
		}

		join := &JoinSpec{Table: "rt", LeftCol: "k", RightCol: "k"}
		attrs := []string{"a", "s", "x", "k", "lt.a", "rt.x", "rt.k", "zz"}
		for qi := 0; qi < 30; qi++ {
			q := Query{From: "lt", Where: propPred(rng, attrs, 2)}
			if rng.Float64() < 0.5 {
				q.Join = join
			}

			want := map[int]int64{}
			if err := db.ScanAttrRows(q, "s", func(lid int, v int64) {
				want[lid] = v
			}); err != nil {
				t.Fatal(err)
			}

			g, err := db.OpenAttrRowIterGroup([]Query{q}, "s")
			if errors.Is(err, ErrStreamUnsupported) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			it := g.Iters[0]
			supported++
			got := map[int]int64{}
			prevBlock := -1
			for {
				bi, lids, vals, ok := it.NextBlock()
				if !ok {
					break
				}
				if bi <= prevBlock || bi > it.MaxBlock() {
					t.Fatalf("seed %d q %d: block %d out of order (prev %d, max %d)",
						seed, qi, bi, prevBlock, it.MaxBlock())
				}
				prevBlock = bi
				if len(lids) == 0 || len(lids) != len(vals) {
					t.Fatalf("seed %d q %d: bad block shape %d/%d", seed, qi, len(lids), len(vals))
				}
				prev := -1
				for i, lid := range lids {
					if int(lid)/blockSize != bi || int(lid) <= prev {
						t.Fatalf("seed %d q %d: row %d out of place in block %d", seed, qi, lid, bi)
					}
					prev = int(lid)
					got[int(lid)] = vals[i]
				}
			}
			g.Close()

			if len(got) != len(want) {
				t.Fatalf("seed %d q %d: iter rows = %d, want %d (%s)",
					seed, qi, len(got), len(want), q.Where)
			}
			for lid, v := range want {
				if gv, ok := got[lid]; !ok || gv != v {
					t.Fatalf("seed %d q %d: row %d = %d,%v want %d (%s)",
						seed, qi, lid, gv, ok, v, q.Where)
				}
			}
		}
	}
	if supported == 0 {
		t.Fatal("no query the streaming iterator supports was generated")
	}
}

// A group shares one snapshot: iterators opened together see the same rows
// even while another goroutine mutates — exercised indirectly by the
// concurrent suite; here just check the group surface opens, streams, and
// closes over multiple queries including duplicates of the same tables.
func TestAttrRowIterGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := NewDB()
	buildPropTables(t, rng, db, "lt", []string{"k", "a", "s"}, 2600)
	buildPropTables(t, rng, db, "rt", []string{"k", "x"}, 200)
	join := &JoinSpec{Table: "rt", LeftCol: "k", RightCol: "k"}
	qs := []Query{
		{From: "lt", Where: &predicate.Cmp{Attr: "a", Op: predicate.OpGe, Val: predicate.Int(0)}},
		{From: "lt", Join: join, Where: &predicate.Cmp{Attr: "x", Op: predicate.OpEq, Val: predicate.Int(1)}},
		{From: "lt", Where: predicate.True{}},
	}
	g, err := db.OpenAttrRowIterGroup(qs, "s")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for i, it := range g.Iters {
		n := 0
		for {
			_, lids, _, ok := it.NextBlock()
			if !ok {
				break
			}
			n += len(lids)
		}
		want := map[int]int64{}
		if err := db.ScanAttrRows(qs[i], "s", func(lid int, v int64) { want[lid] = v }); err != nil {
			t.Fatal(err)
		}
		if n != len(want) {
			t.Fatalf("query %d: streamed %d rows, want %d", i, n, len(want))
		}
	}
}
