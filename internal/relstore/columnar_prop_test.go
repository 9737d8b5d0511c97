package relstore

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hypre/internal/predicate"
)

// This file proves the columnar engine answers every query exactly like a
// row-major reference scan: randomized tables over all Value kinds
// (including NULLs, integral floats that collapse onto ints under indexKey,
// and the odd NaN), randomized predicate trees over every node type, with
// and without hash indexes, with and without a join — so whichever access
// path the engine picks (index candidates, the block scan with zone maps,
// right-driven stitching, row-at-a-time fallback), the answers match.

// refTable is the retained row-major reference: rows are plain Value slices
// and every query is answered by a naive scan with predicate.Eval.
type refTable struct {
	name string
	cols []string
	rows [][]predicate.Value
}

func (rt *refTable) colIdx(name string) int {
	for i, c := range rt.cols {
		if c == name {
			return i
		}
	}
	return -1
}

// refRow mirrors JoinedRow.Get / RowRef.Get semantics exactly: qualified
// names bind to the named table only, bare names bind left-first.
type refRow struct {
	left, right *refTable
	lrow, rrow  []predicate.Value
	hasRight    bool
}

func refGetOne(t *refTable, row []predicate.Value, attr string) (predicate.Value, bool) {
	name := attr
	if tbl, col, ok := splitQualified(attr); ok {
		if tbl != t.name {
			return predicate.Null(), false
		}
		name = col
	}
	pos := t.colIdx(name)
	if pos < 0 {
		return predicate.Null(), false
	}
	return row[pos], true
}

func (r refRow) Get(attr string) (predicate.Value, bool) {
	if v, ok := refGetOne(r.left, r.lrow, attr); ok {
		return v, true
	}
	if r.hasRight {
		return refGetOne(r.right, r.rrow, attr)
	}
	return predicate.Null(), false
}

// refScan enumerates the matching (lid, rid) pairs (rid = -1 when
// unjoined) in left-ascending order, the reference result set.
func refScan(left, right *refTable, join *JoinSpec, where predicate.Predicate, limit int) [][2]int {
	if where == nil {
		where = predicate.True{}
	}
	var out [][2]int
	if join == nil {
		for lid, lrow := range left.rows {
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
		lk := indexKey(lrow[lpos])
		for rid, rrow := range right.rows {
			if indexKey(rrow[rpos]) != lk {
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

// propValue draws one random value: every kind, NULLs, integral floats that
// must collide with ints, and rare NaNs.
func propValue(rng *rand.Rand) predicate.Value {
	switch r := rng.Float64(); {
	case r < 0.10:
		return predicate.Null()
	case r < 0.45:
		return predicate.Int(int64(rng.Intn(21) - 5))
	case r < 0.60:
		return predicate.Float(float64(rng.Intn(21) - 5)) // integral float
	case r < 0.72:
		return predicate.Float(float64(rng.Intn(40))/4 - 3)
	case r < 0.73:
		return predicate.Float(math.NaN())
	default:
		return predicate.String([]string{"A", "B", "C", "DD", "e"}[rng.Intn(5)])
	}
}

func propOp(rng *rand.Rand) predicate.Op {
	return []predicate.Op{predicate.OpEq, predicate.OpNe, predicate.OpLt,
		predicate.OpLe, predicate.OpGt, predicate.OpGe}[rng.Intn(6)]
}

// propPred builds a random predicate tree over the attribute pool (which
// includes qualified, bare, and unresolvable names).
func propPred(rng *rand.Rand, attrs []string, depth int) predicate.Predicate {
	attr := func() string { return attrs[rng.Intn(len(attrs))] }
	if depth <= 0 || rng.Float64() < 0.55 {
		switch rng.Intn(4) {
		case 0:
			return &predicate.Cmp{Attr: attr(), Op: propOp(rng), Val: propValue(rng)}
		case 1:
			return &predicate.Between{Attr: attr(), Lo: propValue(rng), Hi: propValue(rng)}
		case 2:
			n := 1 + rng.Intn(3)
			vals := make([]predicate.Value, n)
			for i := range vals {
				vals[i] = propValue(rng)
			}
			return &predicate.In{Attr: attr(), Vals: vals}
		default:
			return &predicate.Cmp{Attr: attr(), Op: predicate.OpEq, Val: propValue(rng)}
		}
	}
	switch rng.Intn(3) {
	case 0:
		return &predicate.Not{Kid: propPred(rng, attrs, depth-1)}
	case 1:
		kids := make([]predicate.Predicate, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = propPred(rng, attrs, depth-1)
		}
		return &predicate.And{Kids: kids}
	default:
		kids := make([]predicate.Predicate, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = propPred(rng, attrs, depth-1)
		}
		return &predicate.Or{Kids: kids}
	}
}

// buildPropTables creates one (columnar, reference) table pair with random
// contents. Column "s" holds row/8 so consecutive blocks carry tight
// numeric ranges, forcing the zone-map skip/accept paths on range scans.
func buildPropTables(t *testing.T, rng *rand.Rand, db *DB, name string, cols []string, nRows int) (*Table, *refTable) {
	t.Helper()
	specs := make([]Column, len(cols))
	for i, c := range cols {
		specs[i] = Column{Name: c, Kind: predicate.KindInt}
	}
	tab, err := db.CreateTable(name, specs...)
	if err != nil {
		t.Fatal(err)
	}
	ref := &refTable{name: name, cols: cols}
	for r := 0; r < nRows; r++ {
		row := make([]predicate.Value, len(cols))
		for i, c := range cols {
			if c == "s" {
				row[i] = predicate.Int(int64(r / 8))
			} else {
				row[i] = propValue(rng)
			}
		}
		if _, err := tab.Insert(row...); err != nil {
			t.Fatal(err)
		}
		ref.rows = append(ref.rows, row)
	}
	return tab, ref
}

func pairKeys(pairs [][2]int) []string {
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = fmt.Sprintf("%d/%d", p[0], p[1])
	}
	sort.Strings(out)
	return out
}

func gotPairs(rows []JoinedRow) [][2]int {
	out := make([][2]int, len(rows))
	for i, r := range rows {
		rid := -1
		if r.HasRight {
			rid = r.Right.id
		}
		out[i] = [2]int{r.Left.id, rid}
	}
	return out
}

func valueKeySet(vals []predicate.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.Key()
	}
	sort.Strings(out)
	return out
}

// subsetKeys reports whether every value of a has a value of b with its key.
func subsetKeys(a, b []predicate.Value) bool {
	keys := map[string]bool{}
	for _, v := range b {
		keys[v.Key()] = true
	}
	for _, v := range a {
		if !keys[v.Key()] {
			return false
		}
	}
	return true
}

func eqStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refDistinct computes the reference DISTINCT attr over the matched rows,
// telling values apart by Value.Key (so every NaN is one value).
func refDistinct(left, right *refTable, pairs [][2]int, attr string) []predicate.Value {
	seen := map[string]struct{}{}
	var out []predicate.Value
	for _, p := range pairs {
		row := refRow{left: left, lrow: left.rows[p[0]]}
		if p[1] >= 0 {
			row.right, row.rrow, row.hasRight = right, right.rows[p[1]], true
		}
		v, ok := row.Get(attr)
		if !ok || v.IsNull() {
			continue
		}
		k := v.Key()
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, v)
	}
	return out
}

func TestColumnarMatchesRowReferenceSingleTable(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		sizes := []int{0, 1, 37, 257, 1023, 1024, 1500, 2600}
		n := sizes[rng.Intn(len(sizes))]
		tab, ref := buildPropTables(t, rng, db, "lt", []string{"a", "b", "s"}, n)

		// Random index coverage exercises the candidate access path.
		if rng.Float64() < 0.5 {
			if err := tab.BuildIndex("a"); err != nil {
				t.Fatal(err)
			}
		}
		if rng.Float64() < 0.3 {
			if err := tab.BuildIndex("s"); err != nil {
				t.Fatal(err)
			}
		}

		attrs := []string{"a", "b", "s", "lt.a", "lt.s", "zz", "other.a"}
		for qi := 0; qi < 25; qi++ {
			where := propPred(rng, attrs, 2)
			limit := 0
			if rng.Float64() < 0.25 {
				limit = 1 + rng.Intn(5)
			}
			q := Query{From: "lt", Where: where, Limit: limit}
			want := refScan(ref, nil, nil, where, limit)

			rows, err := db.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if !eqStrings(pairKeys(gotPairs(rows)), pairKeys(want)) {
				t.Fatalf("seed %d q %d: Select mismatch for %s: got %d rows, want %d",
					seed, qi, where, len(rows), len(want))
			}
			cnt, err := db.Count(q)
			if err != nil {
				t.Fatal(err)
			}
			if cnt != len(want) {
				t.Fatalf("seed %d q %d: Count = %d, want %d (%s)", seed, qi, cnt, len(want), where)
			}
			if limit == 0 {
				dv, err := db.DistinctValues(q, "a")
				if err != nil {
					t.Fatal(err)
				}
				wantDV := refDistinct(ref, nil, refScan(ref, nil, nil, where, 0), "a")
				if !eqStrings(valueKeySet(dv), valueKeySet(wantDV)) {
					t.Fatalf("seed %d q %d: DistinctValues mismatch (%s)", seed, qi, where)
				}
			}
		}
	}
}

func TestColumnarMatchesRowReferenceJoin(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB()
		nl := []int{3, 60, 300, 1200}[rng.Intn(4)]
		nr := []int{0, 5, 40, 200}[rng.Intn(4)]
		lt, lref := buildPropTables(t, rng, db, "lt", []string{"k", "a", "s"}, nl)
		_, rref := buildPropTables(t, rng, db, "rt", []string{"k", "x"}, nr)
		if rng.Float64() < 0.5 {
			if err := lt.BuildIndex("a"); err != nil {
				t.Fatal(err)
			}
		}

		join := &JoinSpec{Table: "rt", LeftCol: "k", RightCol: "k"}
		attrs := []string{"a", "s", "x", "k", "lt.a", "rt.x", "rt.k", "zz"}
		for qi := 0; qi < 20; qi++ {
			where := propPred(rng, attrs, 2)
			q := Query{From: "lt", Join: join, Where: where}
			want := refScan(lref, rref, join, where, 0)

			rows, err := db.Select(q)
			if err != nil {
				t.Fatal(err)
			}
			if !eqStrings(pairKeys(gotPairs(rows)), pairKeys(want)) {
				t.Fatalf("seed %d q %d: join Select mismatch for %s: got %d rows, want %d",
					seed, qi, where, len(rows), len(want))
			}

			// COUNT(DISTINCT), the shape of every counting query.
			cd, err := db.CountDistinct(q, "lt.s")
			if err != nil {
				t.Fatal(err)
			}
			if wantCD := len(refDistinct(lref, rref, want, "lt.s")); cd != wantCD {
				t.Fatalf("seed %d q %d: CountDistinct = %d, want %d (%s)", seed, qi, cd, wantCD, where)
			}

			// A right-table attr and a Limit: DistinctValues folds the joined
			// rows, each value once (every NaN one value, as Value.Key has it).
			wantX := refDistinct(lref, rref, want, "rt.x")
			for _, limit := range []int{0, 2} {
				ql := q
				ql.Limit = limit
				dv, err := db.DistinctValues(ql, "rt.x")
				if err != nil {
					t.Fatal(err)
				}
				if limit == 0 && !eqStrings(valueKeySet(dv), valueKeySet(wantX)) {
					t.Fatalf("seed %d q %d: DistinctValues(rt.x) mismatch (%s)", seed, qi, where)
				}
				if limit > 0 && (len(dv) != min(limit, len(wantX)) || !subsetKeys(dv, wantX)) {
					t.Fatalf("seed %d q %d: DistinctValues(rt.x, limit %d) = %v, want %d of %v (%s)",
						seed, qi, limit, dv, limit, wantX, where)
				}
			}
			wantRows := refAttrRows(lref, want, "lt.s")
			checkScanAttrRowSet(t, fmt.Sprintf("seed %d q %d (%s)", seed, qi, where),
				db, q, "lt.s", nl, wantRows)
		}
	}
}

// refAttrRows maps each matched left row whose attr is non-NULL to the
// integer widening of that attr — the (row, value) stream the attr-row scans
// owe the caller, per the reference model.
func refAttrRows(left *refTable, pairs [][2]int, attr string) map[int]int64 {
	out := map[int]int64{}
	for _, p := range pairs {
		if v, ok := refGetOne(left, left.rows[p[0]], attr); ok && !v.IsNull() {
			out[p[0]] = v.AsInt()
		}
	}
	return out
}

// checkScanAttrRowSet probes the attr scan's splitAt/spill contract
// against the reference rows (the matched rows whose attr converts): with
// spilling off, with every row spilled, and with a split in the middle of
// the n-row table, the returned set and the spilled rows partition exactly
// those rows at splitAt, and spills arrive ascending with the reference
// values.
func checkScanAttrRowSet(t *testing.T, tag string, db *DB, q Query, attr string, n int, want map[int]int64) {
	t.Helper()
	for _, splitAt := range []int{-1, 0, n / 2} {
		spilled := map[int]bool{}
		prev := -1
		sel, err := db.ScanAttrRowSet(q, attr, splitAt, func(lid int, v int64) {
			if splitAt < 0 || lid < splitAt {
				t.Fatalf("%s: splitAt %d spilled row %d", tag, splitAt, lid)
			}
			if lid <= prev {
				t.Fatalf("%s: splitAt %d spilled row %d after %d", tag, splitAt, lid, prev)
			}
			prev = lid
			if wv, ok := want[lid]; !ok || wv != v {
				t.Fatalf("%s: splitAt %d spilled (%d, %d), reference has (%d, %v)", tag, splitAt, lid, v, wv, ok)
			}
			spilled[lid] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		sel.ForEach(func(lid int) bool {
			if splitAt >= 0 && lid >= splitAt {
				t.Fatalf("%s: splitAt %d left row %d in the set", tag, splitAt, lid)
			}
			if _, ok := want[lid]; !ok {
				t.Fatalf("%s: splitAt %d selected stray row %d", tag, splitAt, lid)
			}
			return true
		})
		if sel.Len()+len(spilled) != len(want) {
			t.Fatalf("%s: splitAt %d: %d selected + %d spilled, want %d rows",
				tag, splitAt, sel.Len(), len(spilled), len(want))
		}
	}
}

func eqInt64Sets(a, b map[int64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
