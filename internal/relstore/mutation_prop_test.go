package relstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// This file is the randomized mutation property suite: a seeded stream of
// inserts, deletes, and updates runs against the columnar store and two
// oracles. Oracle A is an id-preserving row-major reference (physical rows
// plus a tombstone set), proving the mutated store's row-id results exact.
// Oracle B is a second store rebuilt from scratch out of the surviving
// rows, proving the mutated store's value-level answers — selects, joins,
// counts, distinct scans — byte-identical to a never-mutated store holding
// the same logical data. Closing rounds churn the join keys on both sides
// between scans, so the join entry every scan admits rows through is
// repaired from the change logs and checked against oracle A each time.

// refScanLive is refScan over a reference with tombstones: dead rows on
// either side never match.
func refScanLive(left, right *refTable, join *JoinSpec, where predicate.Predicate,
	deadL, deadR map[int]bool, limit int) [][2]int {
	if where == nil {
		where = predicate.True{}
	}
	var out [][2]int
	if join == nil {
		for lid, lrow := range left.rows {
			if deadL[lid] {
				continue
			}
			if where.Eval(refRow{left: left, lrow: lrow}) {
				out = append(out, [2]int{lid, -1})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
		return out
	}
	lpos, rpos := left.colIdx(join.LeftCol), right.colIdx(join.RightCol)
	for lid, lrow := range left.rows {
		if deadL[lid] {
			continue
		}
		lk := indexKey(lrow[lpos])
		for rid, rrow := range right.rows {
			if deadR[rid] || indexKey(rrow[rpos]) != lk {
				continue
			}
			if where.Eval(refRow{left: left, right: right, lrow: lrow, rrow: rrow, hasRight: true}) {
				out = append(out, [2]int{lid, rid})
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// mutateTables runs a seeded op stream over a (store, reference) table
// pair, returning the tombstone set.
func mutateTables(t *testing.T, rng *rand.Rand, tab *Table, ref *refTable, ops int) map[int]bool {
	t.Helper()
	dead := map[int]bool{}
	liveIDs := func() []int {
		var ids []int
		for id := range ref.rows {
			if !dead[id] {
				ids = append(ids, id)
			}
		}
		return ids
	}
	randRow := func() []predicate.Value {
		row := make([]predicate.Value, len(ref.cols))
		for i := range row {
			row[i] = propValue(rng)
		}
		return row
	}
	for op := 0; op < ops; op++ {
		switch r := rng.Float64(); {
		case r < 0.35: // insert
			row := randRow()
			id, err := tab.Insert(row...)
			if err != nil {
				t.Fatal(err)
			}
			if id != len(ref.rows) {
				t.Fatalf("insert returned id %d, want %d", id, len(ref.rows))
			}
			ref.rows = append(ref.rows, row)
		case r < 0.55: // delete
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if !tab.Delete(id) {
				t.Fatalf("Delete(%d) of a live row returned false", id)
			}
			if tab.Delete(id) {
				t.Fatalf("double Delete(%d) returned true", id)
			}
			dead[id] = true
		case r < 0.80: // full-row update
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			row := randRow()
			if err := tab.Update(id, row...); err != nil {
				t.Fatal(err)
			}
			ref.rows[id] = append([]predicate.Value(nil), row...)
		default: // single-column update
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			ci := rng.Intn(len(ref.cols))
			v := propValue(rng)
			if err := tab.UpdateCol(id, ref.cols[ci], v); err != nil {
				t.Fatal(err)
			}
			row := append([]predicate.Value(nil), ref.rows[id]...)
			row[ci] = v
			ref.rows[id] = row
		}
	}
	// Mutating a dead row must fail loudly.
	for id := range dead {
		if err := tab.Update(id, randRow()...); err == nil {
			t.Fatalf("Update of deleted row %d succeeded", id)
		}
		if err := tab.UpdateCol(id, ref.cols[0], predicate.Int(1)); err == nil {
			t.Fatalf("UpdateCol of deleted row %d succeeded", id)
		}
		break
	}
	return dead
}

// rebuildFromSurvivors loads the live rows of each reference into a fresh
// store (fresh ids, fresh dictionaries, fresh zone maps) with the same
// indexes — oracle B.
func rebuildFromSurvivors(t *testing.T, tables []*refTable, deads []map[int]bool,
	indexes map[string][]string) *DB {
	t.Helper()
	db := NewDB()
	for ti, ref := range tables {
		specs := make([]Column, len(ref.cols))
		for i, c := range ref.cols {
			specs[i] = Column{Name: c, Kind: predicate.KindInt}
		}
		tab, err := db.CreateTable(ref.name, specs...)
		if err != nil {
			t.Fatal(err)
		}
		for id, row := range ref.rows {
			if deads[ti][id] {
				continue
			}
			if _, err := tab.Insert(row...); err != nil {
				t.Fatal(err)
			}
		}
		for _, col := range indexes[ref.name] {
			if err := tab.BuildIndex(col); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// rowKey serializes a joined result row by value, for store-vs-store
// comparison where row ids differ.
func rowKey(r JoinedRow, leftCols, rightCols []string) string {
	s := ""
	for _, c := range leftCols {
		v, _ := r.Left.Get(c)
		s += v.Key() + "|"
	}
	s += "//"
	if r.HasRight {
		for _, c := range rightCols {
			v, _ := r.Right.Get(c)
			s += v.Key() + "|"
		}
	}
	return s
}

func selectKeys(t *testing.T, db *DB, q Query, leftCols, rightCols []string) []string {
	t.Helper()
	rows, err := db.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r, leftCols, rightCols)
	}
	sort.Strings(out)
	return out
}

func TestMutationPropertySuite(t *testing.T) {
	leftCols, rightCols := []string{"k", "a", "s"}, []string{"k", "x"}
	for seed := int64(200); seed < 210; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := &StoreCounters{}
		db := NewDB(WithStoreCounters(sc))
		nl := []int{20, 40, 200, 700, 900, 1400, 2300}[rng.Intn(7)]
		nr := []int{10, 60, 300}[rng.Intn(3)]
		lt, lref := buildPropTables(t, rng, db, "lt", leftCols, nl)
		rt, rref := buildPropTables(t, rng, db, "rt", rightCols, nr)
		indexes := map[string][]string{}
		if rng.Float64() < 0.6 {
			if err := lt.BuildIndex("a"); err != nil {
				t.Fatal(err)
			}
			indexes["lt"] = append(indexes["lt"], "a")
		}
		if rng.Float64() < 0.5 {
			if err := rt.BuildIndex("k"); err != nil {
				t.Fatal(err)
			}
			indexes["rt"] = append(indexes["rt"], "k")
		}

		deadL := mutateTables(t, rng, lt, lref, 80)
		deadR := mutateTables(t, rng, rt, rref, 40)

		if got, want := lt.Live(), len(lref.rows)-len(deadL); got != want {
			t.Fatalf("seed %d: lt.Live() = %d, want %d", seed, got, want)
		}
		rebuilt := rebuildFromSurvivors(t, []*refTable{lref, rref},
			[]map[int]bool{deadL, deadR}, indexes)

		join := &JoinSpec{Table: "rt", LeftCol: "k", RightCol: "k"}
		attrs := []string{"a", "s", "x", "k", "lt.a", "rt.x", "rt.k", "zz"}
		for qi := 0; qi < 18; qi++ {
			where := propPred(rng, attrs, 2)
			useJoin := rng.Float64() < 0.6
			if qi%6 == 5 {
				// A cross-side OR: no conjunct reads one table alone, so
				// neither the kernels nor the left-first split apply.
				where = &predicate.Or{Kids: []predicate.Predicate{
					propPred(rng, []string{"a", "lt.s"}, 1),
					propPred(rng, []string{"x", "rt.k"}, 1),
				}}
				useJoin = true
			}
			q := Query{From: "lt", Where: where}
			var wantPairs [][2]int
			if useJoin {
				q.Join = join
				wantPairs = refScanLive(lref, rref, join, where, deadL, deadR, 0)
			} else {
				wantPairs = refScanLive(lref, nil, nil, where, deadL, nil, 0)
			}
			tag := fmt.Sprintf("seed %d q %d (%s)", seed, qi, where)

			// Oracle A: id-exact against the tombstoned reference.
			rows, err := db.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if !eqStrings(pairKeys(gotPairs(rows)), pairKeys(wantPairs)) {
				t.Fatalf("%s: Select mismatch: got %d rows, want %d", tag, len(rows), len(wantPairs))
			}
			cnt, err := db.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if cnt != len(wantPairs) {
				t.Fatalf("%s: Count = %d, want %d", tag, cnt, len(wantPairs))
			}

			// Oracle B: value-identical against the rebuilt-from-survivors
			// store, across the query surface the algorithms use.
			gotKeys := selectKeys(t, db, q, leftCols, rightCols)
			rebKeys := selectKeys(t, rebuilt, q, leftCols, rightCols)
			if !eqStrings(gotKeys, rebKeys) {
				t.Fatalf("%s: mutated store Select != rebuilt store (%d vs %d rows)",
					tag, len(gotKeys), len(rebKeys))
			}
			cd1, err := db.CountDistinct(q, "lt.s")
			if err != nil {
				t.Fatal(err)
			}
			cd2, err := rebuilt.CountDistinct(q, "lt.s")
			if err != nil {
				t.Fatal(err)
			}
			if cd1 != cd2 {
				t.Fatalf("%s: CountDistinct %d != rebuilt %d", tag, cd1, cd2)
			}
			i1 := map[int64]bool{}
			if err := db.ScanAttrInts(q, "lt.s", func(v int64) { i1[v] = true }); err != nil {
				t.Fatal(err)
			}
			i2 := map[int64]bool{}
			if err := rebuilt.ScanAttrInts(q, "lt.s", func(v int64) { i2[v] = true }); err != nil {
				t.Fatal(err)
			}
			if !eqInt64Sets(i1, i2) {
				t.Fatalf("%s: ScanAttrInts %d values != rebuilt %d", tag, len(i1), len(i2))
			}
			checkScanAttrRowSet(t, tag, db, q, "lt.s", lt.Len(), refAttrRows(lref, wantPairs, "lt.s"))

			// MatchLeftRowSet: the delta primitive must equal the full
			// evaluation masked to the touched rows, on a dense random
			// touched set and on a sync-sized one (1–50 scattered rows).
			wantLids := map[int]bool{}
			for _, p := range wantPairs {
				wantLids[p[0]] = true
			}
			dense, sparse := bitset.New(), bitset.New()
			for i := 0; i < lt.Len(); i++ {
				if rng.Float64() < 0.2 {
					dense.Add(i)
				}
			}
			for c := 1 + rng.Intn(50); c > 0; c-- {
				sparse.Add(rng.Intn(lt.Len()))
			}
			for _, touched := range []*bitset.Set{dense, sparse} {
				got, err := db.MatchLeftRowSet(q, touched)
				if err != nil {
					t.Fatal(err)
				}
				for lid := 0; lid < lt.Len(); lid++ {
					wantBit := touched.Contains(lid) && wantLids[lid]
					gotBit := got.Contains(lid)
					if wantBit != gotBit {
						t.Fatalf("%s: MatchLeftRowSet row %d = %v, want %v (%d touched)",
							tag, lid, gotBit, wantBit, touched.Len())
					}
				}
			}
		}

		// Join-entry repair rounds: scan the joined shapes (existence only,
		// a left tree, a right restriction — index candidates on even seeds,
		// a drained right-side scan on odd ones — and both), churn the join
		// keys on both sides, scan again. Both scan paths admit rows through
		// the repaired entry, so a repair that misses a perturbed row shows up
		// as a wrong answer here.
		if seed%2 == 0 {
			if err := rt.BuildIndex("x"); err != nil {
				t.Fatal(err)
			}
		}
		repairsBefore := sc.JoinRepairs.Load()
		for round := 0; round < 6; round++ {
			if round > 0 {
				churnJoinKeys(t, rng, lt, lref, deadL, 8)
				churnJoinKeys(t, rng, rt, rref, deadR, 8)
			}
			leftCmp := &predicate.Cmp{Attr: "a", Op: predicate.OpGe, Val: predicate.Int(int64(rng.Intn(21) - 5))}
			rightCmp := &predicate.Cmp{Attr: "rt.x", Op: predicate.OpEq, Val: predicate.Int(int64(rng.Intn(21) - 5))}
			for si, where := range []predicate.Predicate{nil, leftCmp, rightCmp, predicate.NewAnd(leftCmp, rightCmp)} {
				q := Query{From: "lt", Join: join, Where: where}
				tag := fmt.Sprintf("seed %d repair round %d shape %d (%v)", seed, round, si, where)
				want := refAttrRows(lref, refScanLive(lref, rref, join, where, deadL, deadR, 0), "lt.s")
				checkScanAttrRowSet(t, tag, db, q, "lt.s", lt.Len(), want)
			}
		}
		if sc.JoinRepairs.Load() == repairsBefore {
			t.Fatalf("seed %d: no join-entry repair ran; the repair rounds are vacuous", seed)
		}
	}
}

// churnJoinKeys runs ops inserts, deletes and re-keys of the join column k
// over one side of the join, mirrored into the reference. Keys come from a
// small domain no other row uses, and deletes and re-keys prefer rows
// holding one, so a key often has a single partner — the case where a
// missed repair leaves a stale existence bit or partner list.
func churnJoinKeys(t *testing.T, rng *rand.Rand, tab *Table, ref *refTable, dead map[int]bool, ops int) {
	t.Helper()
	kpos := ref.colIdx("k")
	freshKey := func() predicate.Value { return predicate.Int(int64(1000 + rng.Intn(6))) }
	for op := 0; op < ops; op++ {
		var live, fresh []int
		for id, row := range ref.rows {
			if !dead[id] {
				live = append(live, id)
				if row[kpos].AsInt() >= 1000 {
					fresh = append(fresh, id)
				}
			}
		}
		if len(fresh) > 0 && rng.Intn(4) > 0 {
			live = fresh
		}
		switch r := rng.Intn(3); {
		case r == 0 || len(live) == 0:
			row := make([]predicate.Value, len(ref.cols))
			for i := range row {
				row[i] = propValue(rng)
			}
			row[kpos] = freshKey()
			if _, err := tab.Insert(row...); err != nil {
				t.Fatal(err)
			}
			ref.rows = append(ref.rows, row)
		case r == 1:
			id := live[rng.Intn(len(live))]
			if !tab.Delete(id) {
				t.Fatalf("Delete(%d) of a live row returned false", id)
			}
			dead[id] = true
		default:
			id := live[rng.Intn(len(live))]
			k := freshKey()
			if err := tab.UpdateCol(id, "k", k); err != nil {
				t.Fatal(err)
			}
			row := append([]predicate.Value(nil), ref.rows[id]...)
			row[kpos] = k
			ref.rows[id] = row
		}
	}
}
