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
// result, in first-seen order. The similarity/overlap metrics and coverage
// computation consume these sets.
func (db *DB) DistinctValues(q Query, attr string) ([]predicate.Value, error) {
	seen := make(map[predicate.Value]struct{})
	var out []predicate.Value
	err := db.scan(q, func(r JoinedRow) bool {
		v, ok := r.Get(attr)
		if !ok || v.IsNull() {
			return true
		}
		k := indexKey(v)
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, v)
		}
		return q.Limit <= 0 || len(out) < q.Limit
	})
	return out, err
}

// ScanAttrRowSet is the attr scan: the compressed selection of left rows
// matching the query whose attr converts to an integer, with no per-row
// emission — the consumer keeps the container bitmap the scan produced
// instead of paying a decompress/recompress round trip. attr must bind to
// the left table and q.Limit must be 0; anything else is an error.
//
// Rows at or beyond splitAt are excluded from the selection and instead
// passed to spill, ascending, with their attr value, read under the scan's
// shared state locks: one consistent epoch for the set and the spill.
// splitAt 0 spills every row; splitAt < 0 spills none. The evaluator seeds
// its row plumbing with splitAt 0 and collects the pids of rows inserted
// after its seed with splitAt at the plumbed row count.
func (db *DB) ScanAttrRowSet(q Query, attr string, splitAt int, spill func(lid int, v int64)) (*bitset.Set, error) {
	left, right, leftPos, rightPos, where, err := db.resolveQuery(q)
	if err != nil {
		return nil, err
	}
	side, pos := bindAttr(attr, left, right)
	if side != sideLeft {
		return nil, fmt.Errorf("relstore: attr scans need a left-table attribute, got %q", attr)
	}
	if q.Limit > 0 {
		return nil, fmt.Errorf("relstore: attr scans do not support Limit")
	}
	unlock := lockShared(left, right)
	defer unlock()
	sel, _ := selectLocked(left, right, leftPos, rightPos, where, nil)
	// One walk drops the rows whose attr does not convert (skipped entirely
	// for fully convertible columns, every key column) and spills the rows
	// at or beyond splitAt.
	c := left.cols[pos]
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

// resolveQuery resolves the query's tables and join columns, and defaults
// its WHERE to TRUE.
func (db *DB) resolveQuery(q Query) (left, right *Table, leftPos, rightPos int, where predicate.Predicate, err error) {
	left = db.Table(q.From)
	if left == nil {
		return nil, nil, 0, 0, nil, fmt.Errorf("relstore: unknown table %q", q.From)
	}
	if q.Join != nil {
		if right = db.Table(q.Join.Table); right == nil {
			return nil, nil, 0, 0, nil, fmt.Errorf("relstore: unknown join table %q", q.Join.Table)
		}
		if leftPos = left.ColumnIndex(q.Join.LeftCol); leftPos < 0 {
			return nil, nil, 0, 0, nil, fmt.Errorf("relstore: %s has no column %q", q.From, q.Join.LeftCol)
		}
		if rightPos = right.ColumnIndex(q.Join.RightCol); rightPos < 0 {
			return nil, nil, 0, 0, nil, fmt.Errorf("relstore: %s has no column %q", q.Join.Table, q.Join.RightCol)
		}
	}
	where = q.Where
	if where == nil {
		where = predicate.True{}
	}
	return left, right, leftPos, rightPos, where, nil
}

// selectLocked is relstore's one row selection: the live left rows that
// have a matching partner pair — joined, a live right row with which the
// pair satisfies where; joinless, the row alone — restricted to mask's rows
// when mask is non-nil. Every read is this selection plus a fold.
//
// WHERE splits once by join side. Without a mask, a split WHERE that the
// block evaluator accepts returns the drained scan plan. Anything else runs
// the per-row loop over the mask's rows, or every row: left-only conjuncts
// run on the row before the partner probe, so a rejected row never pays
// the index lookup, and the pair tree — the right-side conjuncts, or a
// WHERE that mixes sides, whole — runs per live partner. The loop never
// touches the join entry, which a mutation stales, so a masked selection
// costs the mask, not the tables.
//
// The pair tree is returned too (nil when every live partner of a selected
// row matches): a caller walking the selected rows' partners filters each
// by it. Callers hold the state locks of both tables; the returned set is
// the caller's to mutate.
func selectLocked(left, right *Table, leftPos, rightPos int, where predicate.Predicate, mask *bitset.Set) (*bitset.Set, predicate.Predicate) {
	rowTree, pairTree, split := splitBySide(where, left, right)
	if !split {
		rowTree, pairTree = nil, where
	} else if mask == nil {
		if p, ok := planScan(left, right, leftPos, rightPos, rowTree, pairTree); ok {
			return p.drain(), pairTree
		}
	}
	out := bitset.New()
	if mask != nil && mask.IsEmpty() {
		return out, pairTree
	}
	var onRow, onPair idFilter
	if rowTree != nil {
		onRow = rowFilter(rowTree, left, right)
	}
	if pairTree != nil {
		onPair = rowFilter(pairTree, left, right)
	}
	var rightIdx *hashIndex
	if right != nil {
		rightIdx = right.ensureIndex(rightPos)
	}
	visit := func(lid int) bool {
		if lid >= left.n {
			return false // mask bits are ascending; nothing left in range
		}
		if left.isDead(lid) || (onRow != nil && !onRow(lid, 0, false)) {
			return true
		}
		if right == nil {
			out.Add(lid)
			return true
		}
		for _, rid := range rightIdx.rows(left.cols[leftPos].value(lid)) {
			if !right.isDead(int(rid)) && (onPair == nil || onPair(lid, int(rid), true)) {
				out.Add(lid)
				break
			}
		}
		return true
	}
	if mask != nil {
		mask.ForEach(visit)
	} else {
		for lid := 0; lid < left.n; lid++ {
			visit(lid)
		}
	}
	return out, pairTree
}

// splitBySide splits the WHERE conjunction by join side: each conjunct must
// read only one table's columns for its kernel (or compiled filter) to run
// against that table alone. A nil tree means no conjunct reads that side
// (attribute-free conjuncts count as left); ok=false means some conjunct
// mixes both sides. Joinless, the whole WHERE is the left tree.
func splitBySide(where predicate.Predicate, left, right *Table) (leftTree, rightTree predicate.Predicate, ok bool) {
	if right == nil {
		return where, nil, true
	}
	var leftParts, rightParts []predicate.Predicate
	for _, c := range flattenAnd(where) {
		side, ok := classifySide(c, left, right)
		if !ok {
			return nil, nil, false
		}
		if side == sideRight {
			rightParts = append(rightParts, c)
		} else {
			leftParts = append(leftParts, c)
		}
	}
	if len(leftParts) > 0 {
		leftTree = predicate.NewAnd(leftParts...)
	}
	if len(rightParts) > 0 {
		rightTree = predicate.NewAnd(rightParts...)
	}
	return leftTree, rightTree, true
}

// flattenAnd returns the conjuncts of p (p itself when it is not an AND).
func flattenAnd(p predicate.Predicate) []predicate.Predicate {
	a, ok := p.(*predicate.And)
	if !ok {
		return []predicate.Predicate{p}
	}
	var out []predicate.Predicate
	for _, k := range a.Kids {
		out = append(out, flattenAnd(k)...)
	}
	return out
}

// classifySide reports which single table's columns a predicate subtree
// reads: sideLeft (including attribute-free and unresolvable-only subtrees,
// whose leaves are constant under either table) or sideRight. ok=false
// means the subtree mixes both sides.
func classifySide(p predicate.Predicate, left, right *Table) (attrSide, bool) {
	hasL, hasR := false, false
	for _, a := range p.Attributes(nil) {
		switch side, _ := bindAttr(a, left, right); side {
		case sideLeft:
			hasL = true
		case sideRight:
			hasR = true
		}
	}
	if hasL && hasR {
		return sideNone, false
	}
	if hasR {
		return sideRight, true
	}
	return sideLeft, true
}

// PrepareQuery eagerly builds the lazy access structures the query's scans
// use (join-column hash indexes and the join entry), so that a following
// parallel materialization phase takes only read paths.
func (db *DB) PrepareQuery(q Query) error {
	left, right, leftPos, rightPos, _, err := db.resolveQuery(q)
	if err != nil || right == nil {
		return err
	}
	unlock := lockShared(left, right)
	defer unlock()
	right.ensureIndex(rightPos)
	left.joinEntry(right, leftPos, rightPos)
	return nil
}

// MatchLeftRowSet reports which of the given left rows currently satisfy
// the query: touched is a compressed selection over left row ids, and the
// result is a fresh selection ⊆ touched holding exactly the live touched
// rows the query matches (for a join, rows with at least one matching
// partner) — the row selection restricted to touched. This is the
// delta-maintenance primitive: after a mutation batch, each cached
// predicate re-evaluates only the touched rows, work proportional to the
// batch and independent of the table sizes. touched is never mutated.
func (db *DB) MatchLeftRowSet(q Query, touched *bitset.Set) (*bitset.Set, error) {
	left, right, leftPos, rightPos, where, err := db.resolveQuery(q)
	if err != nil {
		return nil, err
	}
	if q.Limit > 0 {
		return nil, fmt.Errorf("relstore: MatchLeftRowSet does not support Limit")
	}
	unlock := lockShared(left, right)
	defer unlock()
	sel, _ := selectLocked(left, right, leftPos, rightPos, where, touched)
	return sel, nil
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

// scan drives query execution, invoking emit for each matching row until
// emit returns false or rows are exhausted. It holds the tables' shared
// state locks for the scan's duration: one consistent epoch per table.
func (db *DB) scan(q Query, emit func(JoinedRow) bool) error {
	left, right, leftPos, rightPos, where, err := db.resolveQuery(q)
	if err != nil {
		return err
	}
	unlock := lockShared(left, right)
	defer unlock()
	scanIDsLocked(left, right, leftPos, rightPos, where, func(lid, rid int, hasRight bool) bool {
		row := JoinedRow{Left: left.Row(lid)}
		if hasRight {
			row.Right = right.Row(rid)
			row.HasRight = true
		}
		return emit(row)
	})
	return nil
}

// scanIDsLocked streams the (left, right) row-id pairs that satisfy where:
// the row selection, then, per selected row in ascending order, its live
// partners that pass the pair tree (joinless, the row alone with hasRight
// false). emit returning false stops the walk. Callers hold the
// state locks of both tables.
func scanIDsLocked(left, right *Table, leftPos, rightPos int, where predicate.Predicate,
	emit func(lid, rid int, hasRight bool) bool) {
	sel, pairTree := selectLocked(left, right, leftPos, rightPos, where, nil)
	if right == nil {
		sel.ForEach(func(lid int) bool { return emit(lid, 0, false) })
		return
	}
	var onPair idFilter
	if pairTree != nil {
		onPair = rowFilter(pairTree, left, right)
	}
	rightIdx := right.ensureIndex(rightPos)
	sel.ForEach(func(lid int) bool {
		for _, r := range rightIdx.rows(left.cols[leftPos].value(lid)) {
			rid := int(r)
			if right.isDead(rid) || (onPair != nil && !onPair(lid, rid, true)) {
				continue
			}
			if !emit(lid, rid, true) {
				return false
			}
		}
		return true
	})
}

// attrSide tags which table a bound attribute lives in.
type attrSide uint8

const (
	sideNone attrSide = iota
	sideLeft
	sideRight
)

// bindAttr resolves an attribute reference to a (side, column position)
// slot, mirroring JoinedRow.Get's semantics exactly: qualified names bind
// to the named table only, bare names bind left-first. sideNone means the
// attribute resolves on neither side (lookups on it always miss).
func bindAttr(attr string, left, right *Table) (attrSide, int) {
	if tbl, col, ok := splitQualified(attr); ok {
		if tbl == left.schema.Name {
			if pos := left.ColumnIndex(col); pos >= 0 {
				return sideLeft, pos
			}
			return sideNone, 0
		}
		if right != nil && tbl == right.schema.Name {
			if pos := right.ColumnIndex(col); pos >= 0 {
				return sideRight, pos
			}
		}
		return sideNone, 0
	}
	if pos := left.ColumnIndex(attr); pos >= 0 {
		return sideLeft, pos
	}
	if right != nil {
		if pos := right.ColumnIndex(attr); pos >= 0 {
			return sideRight, pos
		}
	}
	return sideNone, 0
}

// sideResolver returns the attribute resolver the single-table evaluators
// take for one side of a (possibly joined) query: the column position of an
// attribute bindAttr places on that side, -1 for any other — which makes the
// leaf constant false, exactly the row filter's collapsed semantics.
func sideResolver(left, right *Table, want attrSide) func(string) int {
	return func(a string) int {
		if side, p := bindAttr(a, left, right); side == want {
			return p
		}
		return -1
	}
}

// idFilter evaluates a compiled predicate over (left row id, right row id)
// pairs; hasRight is false for unjoined rows.
type idFilter func(lid, rid int, hasRight bool) bool

// compileIDFilter lowers a predicate tree to a closure tree with every
// attribute pre-resolved to a typed column and every literal pre-analyzed,
// so per-row evaluation touches the column vectors directly with no Value
// boxing. Returns ok=false for node types it does not know, in which case
// the caller falls back to Predicate.Eval. The compiled form replicates
// Eval's collapsed three-valued logic: comparisons against NULL or
// unresolvable attributes are false.
func compileIDFilter(p predicate.Predicate, left, right *Table) (idFilter, bool) {
	alwaysFalse := func(int, int, bool) bool { return false }
	switch node := p.(type) {
	case predicate.True:
		return func(int, int, bool) bool { return true }, true
	case *predicate.Cmp:
		side, pos := bindAttr(node.Attr, left, right)
		if side == sideNone {
			return alwaysFalse, true
		}
		op, lit := node.Op, analyzeLit(node.Val)
		if side == sideLeft {
			c := left.cols[pos]
			return func(lid, _ int, _ bool) bool {
				c3, ok := c.cmp3At(lid, lit)
				return ok && opMatch(c3, op)
			}, true
		}
		c := right.cols[pos]
		return func(_, rid int, hasRight bool) bool {
			if !hasRight {
				return false
			}
			c3, ok := c.cmp3At(rid, lit)
			return ok && opMatch(c3, op)
		}, true
	case *predicate.Between:
		side, pos := bindAttr(node.Attr, left, right)
		if side == sideNone {
			return alwaysFalse, true
		}
		lo, hi := analyzeLit(node.Lo), analyzeLit(node.Hi)
		check := func(c *column, row int) bool {
			cl, ok1 := c.cmp3At(row, lo)
			ch, ok2 := c.cmp3At(row, hi)
			return ok1 && ok2 && cl >= 0 && ch <= 0
		}
		if side == sideLeft {
			c := left.cols[pos]
			return func(lid, _ int, _ bool) bool { return check(c, lid) }, true
		}
		c := right.cols[pos]
		return func(_, rid int, hasRight bool) bool { return hasRight && check(c, rid) }, true
	case *predicate.In:
		side, pos := bindAttr(node.Attr, left, right)
		if side == sideNone {
			return alwaysFalse, true
		}
		lits := make([]litVal, len(node.Vals))
		for i, v := range node.Vals {
			lits[i] = analyzeLit(v)
		}
		check := func(c *column, row int) bool {
			for _, lv := range lits {
				if c3, ok := c.cmp3At(row, lv); ok && c3 == 0 {
					return true
				}
			}
			return false
		}
		if side == sideLeft {
			c := left.cols[pos]
			return func(lid, _ int, _ bool) bool { return check(c, lid) }, true
		}
		c := right.cols[pos]
		return func(_, rid int, hasRight bool) bool { return hasRight && check(c, rid) }, true
	case *predicate.Not:
		kid, ok := compileIDFilter(node.Kid, left, right)
		if !ok {
			return nil, false
		}
		return func(lid, rid int, hasRight bool) bool { return !kid(lid, rid, hasRight) }, true
	case *predicate.And:
		kids, ok := compileIDKids(node.Kids, left, right)
		if !ok {
			return nil, false
		}
		return func(lid, rid int, hasRight bool) bool {
			for _, k := range kids {
				if !k(lid, rid, hasRight) {
					return false
				}
			}
			return true
		}, true
	case *predicate.Or:
		kids, ok := compileIDKids(node.Kids, left, right)
		if !ok {
			return nil, false
		}
		return func(lid, rid int, hasRight bool) bool {
			for _, k := range kids {
				if k(lid, rid, hasRight) {
					return true
				}
			}
			return false
		}, true
	default:
		return nil, false
	}
}

func compileIDKids(ps []predicate.Predicate, left, right *Table) ([]idFilter, bool) {
	out := make([]idFilter, len(ps))
	for i, p := range ps {
		k, ok := compileIDFilter(p, left, right)
		if !ok {
			return nil, false
		}
		out[i] = k
	}
	return out, true
}

// rowFilter lowers p to a per-row filter: the compiled typed closure tree
// when every node compiles, boxed Predicate.Eval over materialized rows
// otherwise.
func rowFilter(p predicate.Predicate, left, right *Table) idFilter {
	if f, ok := compileIDFilter(p, left, right); ok {
		return f
	}
	return func(lid, rid int, hasRight bool) bool {
		row := JoinedRow{Left: left.Row(lid)}
		if hasRight {
			row.Right = right.Row(rid)
			row.HasRight = true
		}
		return p.Eval(row)
	}
}

// rightCandidateIDs inspects the predicate for index-usable equality
// conditions on the joined table's columns and, if any are found, returns a
// superset of the matching right row ids (sorted, deduplicated); the caller
// still evaluates the full predicate per row, so over-approximation is safe
// and under-approximation is not. Attributes resolve exactly as evaluation
// does (bare names bind left-first), so a bare column name both tables
// carry never yields right-table candidates for a predicate that
// semantically filters the left table.
func rightCandidateIDs(left, right *Table, p predicate.Predicate) ([]int32, bool) {
	return candidateIDsResolve(right, p, sideResolver(left, right, sideRight))
}

func candidateIDsResolve(t *Table, p predicate.Predicate, resolve func(string) int) ([]int32, bool) {
	switch node := p.(type) {
	case *predicate.Cmp:
		if node.Op != predicate.OpEq {
			return nil, false
		}
		pos := resolve(node.Attr)
		if pos < 0 || !indexUsable(t, pos, node.Val) {
			return nil, false
		}
		ids, ok := t.lookup(pos, node.Val)
		return ids, ok
	case *predicate.In:
		pos := resolve(node.Attr)
		if pos < 0 {
			return nil, false
		}
		if _, ok := t.indexFor(pos); !ok {
			return nil, false
		}
		var all []int32
		for _, v := range node.Vals {
			if !indexUsable(t, pos, v) {
				return nil, false
			}
			ids, _ := t.lookup(pos, v)
			all = append(all, ids...)
		}
		return dedupeIDs(all), true
	case *predicate.And:
		// Any single conjunct's candidates are a valid superset of the AND.
		best := []int32(nil)
		found := false
		for _, k := range node.Kids {
			if ids, ok := candidateIDsResolve(t, k, resolve); ok {
				if !found || len(ids) < len(best) {
					best, found = ids, true
				}
			}
		}
		return best, found
	case *predicate.Or:
		// All disjuncts must be index-usable for the union to be a superset.
		var all []int32
		for _, k := range node.Kids {
			ids, ok := candidateIDsResolve(t, k, resolve)
			if !ok {
				return nil, false
			}
			all = append(all, ids...)
		}
		return dedupeIDs(all), true
	default:
		return nil, false
	}
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
