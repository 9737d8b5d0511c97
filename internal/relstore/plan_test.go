package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// TestPlanOutlivesStoreChanges compiles plans once and runs them after
// each of a series of commits that replace what a plan must read at run
// time: a string literal absent from the dictionary at compile time gets
// inserted, a string column migrates off its dictionary, a NaN lands in an
// indexed right column (so index candidates stop being usable), and a
// compaction swaps every column of the base table. After every commit each
// plan's full scan, its match over a random row mask, and that match given
// the shared partner mask must equal predicate.Eval over the store's
// JoinedRows.
func TestPlanOutlivesStoreChanges(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(WithCompaction(0.25))
		lt, err := db.CreateTable("lt", Column{Name: "k"}, Column{Name: "a"}, Column{Name: "s"}, Column{Name: "name"})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := db.CreateTable("rt", Column{Name: "k"}, Column{Name: "x"}, Column{Name: "name"})
		if err != nil {
			t.Fatal(err)
		}
		// A name column that is mostly not strings, so a few hundred
		// distinct names tip it off its dictionary.
		name := func() predicate.Value {
			switch rng.Intn(20) {
			case 0:
				return predicate.String([]string{"A", "B", "C", "DD", "e"}[rng.Intn(5)])
			case 1:
				return predicate.Null()
			}
			return predicate.Int(int64(rng.Intn(9)))
		}
		insertL := func(nm predicate.Value) {
			if _, err := lt.Insert(predicate.Int(int64(rng.Intn(60))), propValue(rng), predicate.Int(int64(rng.Intn(200))), nm); err != nil {
				t.Fatal(err)
			}
		}
		for range 1300 {
			insertL(name())
		}
		for range 150 {
			if _, err := rt.Insert(predicate.Int(int64(rng.Intn(60))), predicate.Int(int64(rng.Intn(8))), name()); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.BuildIndex("x"); err != nil {
			t.Fatal(err)
		}

		join := &JoinSpec{Table: "rt", LeftCol: "k", RightCol: "k"}
		shapes := []string{
			`name = "ZZ"`,                   // absent from the dictionary until batch 0
			`lt.name IN ("ZZ", "A")`,        // left-only IN
			`rt.x = 3`,                      // right side, answered by index candidates
			`rt.x IN (3, 5)`,                // right-side IN
			`a >= 0 OR rt.x = 3`,            // mixed-side OR
			`NOT (rt.x = 3)`,                // NOT over a right leaf
			`s BETWEEN 20 AND 90`,           // BETWEEN
			`k = 7`,                         // a bare name both tables carry binds left
			`name = "A" AND rt.x >= 2`,      // split: both sides
			`rt.name = "ZZ" AND s < 100`,    // right string absent at compile time
			`name >= "raw" AND name < "rb"`, // rows written in raw mode
		}
		// NULL literals, which the parser has no spelling for.
		wheres := []predicate.Predicate{predicate.NewOr(
			&predicate.Cmp{Attr: "a", Op: predicate.OpEq, Val: predicate.Null()},
			&predicate.Not{Kid: &predicate.Cmp{Attr: "rt.name", Op: predicate.OpNe, Val: predicate.Null()}})}
		for _, s := range shapes {
			wheres = append(wheres, predicate.MustParse(s))
		}
		attrs := []string{"a", "s", "name", "x", "k", "lt.name", "rt.x", "rt.k", "rt.name", "zz"}
		for range 24 {
			wheres = append(wheres, propPred(rng, attrs, 2))
		}
		type compiledQuery struct {
			q Query
			p *Plan
		}
		var plans []compiledQuery
		for _, w := range wheres {
			for _, j := range []*JoinSpec{join, nil} {
				q := Query{From: "lt", Join: j, Where: w}
				plans = append(plans, compiledQuery{q, compiled(t, db, q)})
			}
		}
		partners := compiled(t, db, Query{From: "lt", Join: join})

		nameCol := lt.ColumnIndex("name")
		batches := []struct {
			what  string
			apply func()
			check func() bool
		}{
			{"new string", func() {
				for range 30 {
					insertL(predicate.String("ZZ"))
				}
				for range 10 {
					if err := rt.UpdateCol(rng.Intn(rt.Len()), "name", predicate.String("ZZ")); err != nil {
						t.Fatal(err)
					}
				}
			}, func() bool { _, ok := lt.cols[nameCol].dict.code("ZZ"); return ok }},
			{"raw migration", func() {
				for i := range 400 {
					insertL(predicate.String(fmt.Sprintf("raw%03d", i)))
				}
			}, func() bool { return lt.cols[nameCol].rawMode }},
			{"NaN in an indexed right column", func() {
				for range 5 {
					if err := rt.UpdateCol(rng.Intn(rt.Len()), "x", predicate.Float(math.NaN())); err != nil {
						t.Fatal(err)
					}
				}
			}, func() bool { return rt.cols[rt.ColumnIndex("x")].anyNaN() }},
			{"compaction", func() {
				for len(lt.comps) == 0 {
					lt.Delete(rng.Intn(lt.Len()))
				}
			}, func() bool { return len(lt.comps) > 0 }},
		}
		for _, b := range batches {
			b.apply()
			if !b.check() {
				t.Fatalf("seed %d: batch %q did not change the store as planned", seed, b.what)
			}
			mask := bitset.New()
			for range 64 {
				mask.Add(rng.Intn(lt.Len()))
			}
			partnered, err := partners.MatchLeftRowSet(mask, nil)
			if err != nil {
				t.Fatal(err)
			}
			for pi, cq := range plans {
				tag := fmt.Sprintf("seed %d after %q, plan %d (%v, joined %v)", seed, b.what, pi, cq.q.Where, cq.q.Join != nil)
				want := evalReference(db, cq.q)
				got, err := cq.p.ScanAttrRowSet("k", -1, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkRows(t, tag+" scan", got, want, nil)
				for _, pm := range []*bitset.Set{nil, partnered} {
					got, err := cq.p.MatchLeftRowSet(mask, pm)
					if err != nil {
						t.Fatal(err)
					}
					checkRows(t, fmt.Sprintf("%s match (partnered %v)", tag, pm != nil), got, want, mask)
				}
			}
		}
	}
}

// evalReference is the row-major answer to q: the live left rows for which
// predicate.Eval accepts the row alone (joinless) or paired with some live
// right row of an equal join key.
func evalReference(db *DB, q Query) map[int]bool {
	left := db.Table(q.From)
	var right *Table
	partners := map[predicate.Value][]int{}
	if q.Join != nil {
		right = db.Table(q.Join.Table)
		for rid := 0; rid < right.Len(); rid++ {
			if right.Alive(rid) {
				k := indexKey(right.Value(rid, q.Join.RightCol))
				partners[k] = append(partners[k], rid)
			}
		}
	}
	out := map[int]bool{}
	for lid := 0; lid < left.Len(); lid++ {
		if !left.Alive(lid) {
			continue
		}
		if right == nil {
			out[lid] = q.Where.Eval(JoinedRow{Left: left.Row(lid)})
			continue
		}
		for _, rid := range partners[indexKey(left.Value(lid, q.Join.LeftCol))] {
			if q.Where.Eval(JoinedRow{Left: left.Row(lid), Right: right.Row(rid), HasRight: true}) {
				out[lid] = true
				break
			}
		}
	}
	return out
}

// checkRows fails unless got holds exactly want's rows, restricted to mask
// when mask is non-nil.
func checkRows(t *testing.T, tag string, got *bitset.Set, want map[int]bool, mask *bitset.Set) {
	t.Helper()
	n := 0
	for lid, ok := range want {
		if ok && (mask == nil || mask.Contains(lid)) {
			n++
			if !got.Contains(lid) {
				t.Fatalf("%s: row %d missing (%d rows, want %d)", tag, lid, got.Len(), n)
			}
		}
	}
	if got.Len() != n {
		t.Fatalf("%s: %d rows, want %d", tag, got.Len(), n)
	}
}
