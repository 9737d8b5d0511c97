package relstore

import (
	"fmt"
	"math"
	"slices"

	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// JoinSpec describes an inner equi-join against a second table:
// From.LeftCol = Table.RightCol.
type JoinSpec struct {
	Table    string
	LeftCol  string
	RightCol string
}

// Query is a SELECT over one table, optionally equi-joined with a second,
// filtered by Where, truncated at Limit rows (0 = unlimited). This covers
// every query the dissertation's algorithms issue.
type Query struct {
	From  string
	Join  *JoinSpec
	Where predicate.Predicate
	Limit int
}

// JoinedRow is a (possibly joined) result row. It implements predicate.Row;
// qualified attributes resolve against the owning table, bare names resolve
// left-first.
type JoinedRow struct {
	Left     RowRef
	Right    RowRef
	HasRight bool
}

// Get implements predicate.Row.
func (j JoinedRow) Get(attr string) (predicate.Value, bool) {
	if v, ok := j.Left.Get(attr); ok {
		return v, true
	}
	if j.HasRight {
		return j.Right.Get(attr)
	}
	return predicate.Null(), false
}

// Select runs the query and returns matching rows.
func (db *DB) Select(q Query) ([]JoinedRow, error) {
	var out []JoinedRow
	err := db.scan(q, func(r JoinedRow) bool {
		out = append(out, r)
		return q.Limit <= 0 || len(out) < q.Limit
	})
	return out, err
}

// Count runs the query and returns the number of matching rows.
func (db *DB) Count(q Query) (int, error) {
	n := 0
	err := db.scan(q, func(JoinedRow) bool {
		n++
		return q.Limit <= 0 || n < q.Limit
	})
	return n, err
}

// CountDistinct returns COUNT(DISTINCT attr) over the query result — the
// shape of every counting query in Chapter 5 (count(distinct dblp.pid)).
func (db *DB) CountDistinct(q Query, attr string) (int, error) {
	vals, err := db.DistinctValues(q, attr)
	return len(vals), err
}

// DistinctValues returns the distinct non-NULL values of attr over the query
// result, in first-seen order. Values are told apart as Value.Key tells
// them: an integral float is its int, and every NaN is one value.
func (db *DB) DistinctValues(q Query, attr string) ([]predicate.Value, error) {
	seen := make(map[predicate.Value]struct{})
	var out []predicate.Value
	err := db.scan(q, func(r JoinedRow) bool {
		v, ok := r.Get(attr)
		if !ok || v.IsNull() {
			return true
		}
		k := indexKey(v)
		if math.IsNaN(v.AsFloat()) {
			k = predicate.Null() // NaN never equals itself; NULL is never a key here
		}
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, v)
		}
		return q.Limit <= 0 || len(out) < q.Limit
	})
	return out, err
}

// ScanAttrRowSet is the attr scan: the compressed selection of left rows
// matching the plan whose attr converts to an integer, with no per-row
// emission — the consumer keeps the container bitmap the scan produced
// instead of paying a decompress/recompress round trip. attr must bind to
// the left table and the compiled query's Limit must be 0; anything else
// is an error.
//
// Rows at or beyond splitAt are excluded from the selection and instead
// passed to spill, ascending, with their attr value, read under the scan's
// shared state locks: one consistent epoch for the set and the spill.
// splitAt 0 spills every row; splitAt < 0 spills none. The evaluator seeds
// its row plumbing with splitAt 0 and collects the pids of rows inserted
// after its seed with splitAt at the plumbed row count.
func (p *Plan) ScanAttrRowSet(attr string, splitAt int, spill func(lid int, v int64)) (*bitset.Set, error) {
	side, pos := bindAttr(attr, p.left, p.right)
	if side != sideLeft {
		return nil, fmt.Errorf("relstore: attr scans need a left-table attribute, got %q", attr)
	}
	if p.limit > 0 {
		return nil, fmt.Errorf("relstore: attr scans do not support Limit")
	}
	defer lockShared(p.left, p.right).unlock()
	sel := p.selectLocked(nil, nil)
	// One walk drops the rows whose attr does not convert (skipped entirely
	// for fully convertible columns, every key column) and spills the rows
	// at or beyond splitAt.
	c := p.left.cols[pos]
	if m, ok := sel.Max(); ok && (c.nNoInt > 0 || (splitAt >= 0 && m >= splitAt)) {
		sel.Retain(func(lid int) bool {
			v, ok := c.intAt(lid)
			if ok && splitAt >= 0 && lid >= splitAt {
				spill(lid, v)
				return false
			}
			return ok
		})
	}
	return sel, nil
}

// MatchLeftRowSet reports which of the given left rows currently satisfy
// the plan: touched is a compressed selection over left row ids, and the
// result is a fresh selection ⊆ touched holding exactly the live touched
// rows the plan matches (for a join, rows with at least one matching
// partner) — the row selection restricted to touched. This is the
// delta-maintenance primitive: after a mutation batch, each cached
// predicate re-evaluates only the touched rows, work proportional to the
// batch and independent of the table sizes. touched is never mutated.
//
// partnered, when non-nil, is what a plan of the same join with no WHERE
// returned for touched: the touched rows that are live and have a live
// partner. A joined plan then matches over it, and one whose WHERE reads
// only the left table skips the partner probe — so a refresh of many
// predicates pays the join once. A joinless plan ignores it.
func (p *Plan) MatchLeftRowSet(touched, partnered *bitset.Set) (*bitset.Set, error) {
	if p.limit > 0 {
		return nil, fmt.Errorf("relstore: MatchLeftRowSet does not support Limit")
	}
	defer lockShared(p.left, p.right).unlock()
	return p.selectLocked(touched, partnered), nil
}

// selectLocked is relstore's one row selection: the live left rows that
// have a matching partner pair — joined, a live right row with which the
// pair satisfies the WHERE; joinless, the row alone — restricted to mask's
// rows when mask is non-nil. Every read is this selection plus a fold.
//
// Without a mask, a plan the block path can run returns the drained block
// scan. Anything else runs the row loop over the mask's rows, or every row:
// the row tree runs on the row before the partner probe, so a rejected row
// never pays the index lookup, and the pair tree runs per live partner. The
// loop never touches the join entry, which a mutation stales, so a masked
// selection costs the mask, not the tables. partnered is MatchLeftRowSet's.
// Callers hold the state locks of both tables; the returned set is the
// caller's to mutate.
func (p *Plan) selectLocked(mask, partnered *bitset.Set) *bitset.Set {
	if mask == nil && p.block {
		return p.blockScan().drain()
	}
	left, right := p.left, p.right
	probe := right != nil
	if probe && partnered != nil {
		mask, probe = partnered, p.pairTree != nil
	}
	var sel *bitset.Set
	if mask == nil {
		sel = bitset.New()
		sel.AddRange(0, left.n)
	} else {
		sel = mask.Clone()
	}
	var rightIdx *hashIndex
	if probe {
		rightIdx = right.ensureIndex(p.rightPos)
	}
	sel.Retain(func(lid int) bool {
		if lid >= left.n || left.isDead(lid) || (p.rowTree != nil && !p.rowTree.row(lid, 0, false)) {
			return false
		}
		if !probe {
			return true
		}
		for _, rid := range rightIdx.rows(left.cols[p.leftPos].value(lid)) {
			if !right.isDead(int(rid)) && (p.pairTree == nil || p.pairTree.row(lid, int(rid), true)) {
				return true
			}
		}
		return false
	})
	return sel
}

// PrepareQuery eagerly builds the lazy access structures the query's scans
// use (join-column hash indexes and the join entry), so that a following
// parallel materialization phase takes only read paths.
func (db *DB) PrepareQuery(q Query) error {
	p, err := db.Compile(q)
	if err != nil || p.right == nil {
		return err
	}
	defer lockShared(p.left, p.right).unlock()
	p.right.ensureIndex(p.rightPos)
	p.left.joinEntry(p.right, p.leftPos, p.rightPos)
	return nil
}

// LookupRowIDs returns the live row ids of table whose column equals v,
// through the column's hash index (built on first use). Equality follows
// indexKey semantics (integral floats collapse onto ints). The delta layer
// uses it to map a join-table change back to the base rows partnered with
// the changed key.
func (db *DB) LookupRowIDs(table, col string, v predicate.Value) ([]int, error) {
	t := db.Table(table)
	if t == nil {
		return nil, fmt.Errorf("relstore: unknown table %q", table)
	}
	pos := t.ColumnIndex(col)
	if pos < 0 {
		return nil, fmt.Errorf("relstore: %s has no column %q", table, col)
	}
	t.state.RLock()
	defer t.state.RUnlock()
	var out []int
	for _, id := range t.ensureIndex(pos).rows(v) {
		if !t.isDead(int(id)) {
			out = append(out, int(id))
		}
	}
	return out, nil
}

// scan compiles and runs the query, invoking emit for each matching row
// until emit returns false or rows are exhausted. It holds the tables'
// shared state locks for the scan's duration: one consistent epoch per
// table.
func (db *DB) scan(q Query, emit func(JoinedRow) bool) error {
	p, err := db.Compile(q)
	if err != nil {
		return err
	}
	defer lockShared(p.left, p.right).unlock()
	p.pairsLocked(func(lid, rid int, hasRight bool) bool {
		row := JoinedRow{Left: p.left.Row(lid)}
		if hasRight {
			row.Right = p.right.Row(rid)
			row.HasRight = true
		}
		return emit(row)
	})
	return nil
}

// pairsLocked streams the (left, right) row-id pairs that satisfy the
// plan: the row selection, then, per selected row in ascending order, its
// live partners that pass the pair tree (joinless, the row alone with
// hasRight false). emit returning false stops the walk. Callers hold the
// state locks of both tables.
func (p *Plan) pairsLocked(emit func(lid, rid int, hasRight bool) bool) {
	sel := p.selectLocked(nil, nil)
	if p.right == nil {
		sel.ForEach(func(lid int) bool { return emit(lid, 0, false) })
		return
	}
	rightIdx := p.right.ensureIndex(p.rightPos)
	sel.ForEach(func(lid int) bool {
		for _, r := range rightIdx.rows(p.left.cols[p.leftPos].value(lid)) {
			rid := int(r)
			if p.right.isDead(rid) || (p.pairTree != nil && !p.pairTree.row(lid, rid, true)) {
				continue
			}
			if !emit(lid, rid, true) {
				return false
			}
		}
		return true
	})
}

// indexUsable reports whether hash-index equality on (column pos, literal)
// reproduces Compare's equality. NaN breaks it from both sides: a NaN
// literal "equals" every number but hashes to an unreachable key, and NaN
// rows "equal" every numeric literal but live under unreachable keys.
func indexUsable(t *Table, pos int, lit predicate.Value) bool {
	if lit.Kind() == predicate.KindFloat && math.IsNaN(lit.AsFloat()) {
		return false
	}
	return !t.cols[pos].anyNaN()
}

func dedupeIDs(ids []int32) []int32 {
	if len(ids) <= 1 {
		return ids
	}
	slices.Sort(ids)
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
