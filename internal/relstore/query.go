package relstore

import (
	"fmt"
	"math"
	"sort"

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
	err := db.scanAttr(q, attr, func(v predicate.Value) bool {
		k := indexKey(v)
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, v)
		}
		return q.Limit <= 0 || len(out) < q.Limit
	})
	return out, err
}

// DistinctInts returns the distinct non-NULL values of an integer attribute
// (the tuple-id collection query behind every predicate-set
// materialization), deduplicated without per-value key allocation. Values
// are widened with AsInt, matching DistinctValues followed by AsInt on each
// element.
func (db *DB) DistinctInts(q Query, attr string) ([]int64, error) {
	seen := make(map[int64]struct{})
	var out []int64
	err := db.scanAttr(q, attr, func(v predicate.Value) bool {
		i := v.AsInt()
		if _, dup := seen[i]; !dup {
			seen[i] = struct{}{}
			out = append(out, i)
		}
		return q.Limit <= 0 || len(out) < q.Limit
	})
	return out, err
}

// ScanAttrInts is the bulk materialization scan: it streams the integer
// widening of a non-NULL left-table attribute for the rows matching q,
// visiting each left row at most once no matter how many join partners it
// has. Values may repeat only when distinct left rows share one (and never
// for a key column like dblp.pid), so set-building callers dedupe — the
// evaluator's bitmap does it for free. Queries with a Limit or a non-left
// attribute fall back to the exact DistinctInts semantics.
func (db *DB) ScanAttrInts(q Query, attr string, emit func(int64)) error {
	left := db.Table(q.From)
	if left == nil {
		return fmt.Errorf("relstore: unknown table %q", q.From)
	}
	var right *Table
	if q.Join != nil {
		right = db.Table(q.Join.Table)
	}
	if q.Limit <= 0 {
		if side, _ := bindAttr(attr, left, right); side == sideLeft {
			return db.ScanAttrRows(q, attr, func(_ int, v int64) { emit(v) })
		}
	}
	seen := make(map[int64]struct{})
	cnt := 0
	return db.scanAttr(q, attr, func(v predicate.Value) bool {
		i := v.AsInt()
		if _, dup := seen[i]; !dup {
			seen[i] = struct{}{}
			emit(i)
			cnt++
		}
		return q.Limit <= 0 || cnt < q.Limit
	})
}

// ScanAttrRows is the emit form of ScanAttrRowSet: every matching left row
// is handed to emit exactly once, ascending, with the integer widening of its
// attr (rows whose attr does not convert are skipped), all under the scan's
// shared state locks. A caller that has precomputed a per-row mapping (the
// evaluator's row→pid cache) can then skip value hashing entirely. attr must
// bind to the left table and q.Limit must be 0.
func (db *DB) ScanAttrRows(q Query, attr string, emit func(lid int, v int64)) error {
	c, sel, unlock, err := db.scanAttrSel(q, attr)
	if err != nil {
		return err
	}
	defer unlock()
	sel.ForEach(func(lid int) bool {
		if v, ok := c.intAt(lid); ok {
			emit(lid, v)
		}
		return true
	})
	return nil
}

// ScanAttrRowSet is the set-valued attr scan: the compressed selection of
// left rows matching the query whose attr converts to an integer, with no
// per-row emission — the consumer keeps the container bitmap the scan
// produced instead of paying a decompress/recompress round trip. attr must
// bind to the left table and q.Limit must be 0; anything else is an error
// (ScanAttrInts serves those shapes).
//
// Rows at or beyond splitAt are excluded from the selection and instead
// passed to spill, ascending, with their attr value, read under the scan's
// shared state lock — the same one-consistent-epoch guarantee ScanAttrRows's
// emission has. splitAt < 0 disables spilling (the whole selection
// returns). The evaluator uses this to collect pids of rows inserted
// after its seed without a second, differently-timed store read.
func (db *DB) ScanAttrRowSet(q Query, attr string, splitAt int, spill func(lid int, v int64)) (*bitset.Set, error) {
	c, sel, unlock, err := db.scanAttrSel(q, attr)
	if err != nil {
		return nil, err
	}
	defer unlock()
	// Drop rows whose attr does not convert (the rows ScanAttrRows does not
	// emit) — one typed check per selected row, skipped entirely for fully
	// convertible columns (every key column).
	if c.nNoInt > 0 {
		sel.Retain(func(lid int) bool {
			_, ok := c.intAt(lid)
			return ok
		})
	}
	if splitAt >= 0 {
		if m, has := sel.Max(); has && m >= splitAt {
			for lid, lok := sel.NextSet(splitAt); lok; lid, lok = sel.NextSet(lid + 1) {
				if v, vok := c.intAt(lid); vok {
					spill(lid, v)
				}
			}
			sel.Retain(func(lid int) bool { return lid < splitAt })
		}
	}
	return sel, nil
}

// scanAttrSel is the one core under ScanAttrRows and ScanAttrRowSet: it
// validates the scan shape (left-bound attr, no Limit), takes the tables'
// shared state locks, and computes the selection of live left rows matching
// the query — the drain of a block scan plan, or, for a shape the plan
// refuses, the row-at-a-time engine filling the same set. It returns the
// attr column and the selection with the locks still held, so the caller
// reads attr values at the same epoch; the caller must call unlock.
func (db *DB) scanAttrSel(q Query, attr string) (c *column, sel *bitset.Set, unlock func(), err error) {
	left, right, leftPos, rightPos, pos, where, err := db.resolveAttrRowScan(q, attr)
	if err != nil {
		return nil, nil, nil, err
	}
	unlock = lockShared(left, right)
	if p, ok := planScan(left, right, leftPos, rightPos, where); ok {
		sel = p.drain()
	} else {
		// Distinct right rows reaching the same left row dedup in the set.
		sel = bitset.New()
		if err := db.scanIDsLocked(q, left, right, leftPos, rightPos, func(lid, _ int, _ bool) bool {
			sel.Add(lid)
			return true
		}); err != nil {
			unlock()
			return nil, nil, nil, err
		}
	}
	return left.cols[pos], sel, unlock, nil
}

// resolveAttrRowScan is the prologue of the attr-row scans: table/join
// resolution, the left-bound-attribute and no-Limit constraints, and WHERE
// defaulting.
func (db *DB) resolveAttrRowScan(q Query, attr string) (left, right *Table,
	leftPos, rightPos, attrPos int, where predicate.Predicate, err error) {
	left = db.Table(q.From)
	if left == nil {
		return nil, nil, 0, 0, 0, nil, fmt.Errorf("relstore: unknown table %q", q.From)
	}
	if q.Join != nil {
		right, leftPos, rightPos, err = db.resolveJoin(q)
		if err != nil {
			return nil, nil, 0, 0, 0, nil, err
		}
	}
	side, pos := bindAttr(attr, left, right)
	if side != sideLeft {
		return nil, nil, 0, 0, 0, nil, fmt.Errorf("relstore: attr-row scans need a left-table attribute, got %q", attr)
	}
	if q.Limit > 0 {
		return nil, nil, 0, 0, 0, nil, fmt.Errorf("relstore: attr-row scans do not support Limit")
	}
	where = q.Where
	if where == nil {
		where = predicate.True{}
	}
	return left, right, leftPos, rightPos, pos, where, nil
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
	left := db.Table(q.From)
	if left == nil {
		return fmt.Errorf("relstore: unknown table %q", q.From)
	}
	if q.Join == nil {
		return nil
	}
	right, leftPos, rightPos, err := db.resolveJoin(q)
	if err != nil {
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
// partner). This is the delta-maintenance primitive: after a mutation
// batch, each cached predicate re-evaluates only the touched rows through
// the compiled per-row filter — work proportional to the batch, independent
// of the table sizes, and never touching the join entry a mutation stales
// (the next scan repairs it from the change logs). touched is never mutated.
func (db *DB) MatchLeftRowSet(q Query, touched *bitset.Set) (*bitset.Set, error) {
	left := db.Table(q.From)
	if left == nil {
		return nil, fmt.Errorf("relstore: unknown table %q", q.From)
	}
	if q.Limit > 0 {
		return nil, fmt.Errorf("relstore: MatchLeftRowSet does not support Limit")
	}
	var right *Table
	var leftPos, rightPos int
	if q.Join != nil {
		var err error
		right, leftPos, rightPos, err = db.resolveJoin(q)
		if err != nil {
			return nil, err
		}
	}
	where := q.Where
	if where == nil {
		where = predicate.True{}
	}
	unlock := lockShared(left, right)
	defer unlock()

	out := bitset.New()
	if touched.IsEmpty() {
		return out, nil
	}
	// Left-only conjuncts run on the row before the join probe, so a
	// rejected row never pays the index lookup; right-side conjuncts run per
	// live partner. A WHERE that does not split by side runs whole per
	// partner.
	var onRow, onPair idFilter
	if leftTree, rightTree, ok := splitBySide(where, left, right); !ok {
		onPair = rowFilter(where, left, right)
	} else {
		if leftTree != nil {
			onRow = rowFilter(leftTree, left, right)
		}
		if rightTree != nil {
			onPair = rowFilter(rightTree, left, right)
		}
	}
	var rightIdx hashIndex
	if right != nil {
		rightIdx = right.ensureIndex(rightPos)
	}
	touched.ForEach(func(lid int) bool {
		if lid >= left.n {
			return false // touched bits are ascending; nothing left in range
		}
		if left.isDead(lid) || (onRow != nil && !onRow(lid, 0, false)) {
			return true
		}
		if right == nil {
			out.Add(lid)
			return true
		}
		for _, rid := range rightIdx[indexKey(left.cols[leftPos].value(lid))] {
			if !right.isDead(rid) && (onPair == nil || onPair(lid, rid, true)) {
				out.Add(lid)
				break
			}
		}
		return true
	})
	return out, nil
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
	idx := t.ensureIndex(pos)
	var out []int
	for _, id := range idx[indexKey(v)] {
		if !t.isDead(id) {
			out = append(out, id)
		}
	}
	return out, nil
}

// resolveJoin validates the join spec and resolves its column positions.
func (db *DB) resolveJoin(q Query) (right *Table, leftPos, rightPos int, err error) {
	left := db.Table(q.From)
	right = db.Table(q.Join.Table)
	if right == nil {
		return nil, 0, 0, fmt.Errorf("relstore: unknown join table %q", q.Join.Table)
	}
	leftPos = left.ColumnIndex(q.Join.LeftCol)
	rightPos = right.ColumnIndex(q.Join.RightCol)
	if leftPos < 0 {
		return nil, 0, 0, fmt.Errorf("relstore: %s has no column %q", q.From, q.Join.LeftCol)
	}
	if rightPos < 0 {
		return nil, 0, 0, fmt.Errorf("relstore: %s has no column %q", q.Join.Table, q.Join.RightCol)
	}
	return right, leftPos, rightPos, nil
}

// scanAttr streams the non-NULL values of attr for every matching row,
// resolving the attribute to a (side, column) slot once instead of per row.
func (db *DB) scanAttr(q Query, attr string, emit func(predicate.Value) bool) error {
	left := db.Table(q.From)
	if left == nil {
		return fmt.Errorf("relstore: unknown table %q", q.From)
	}
	var right *Table
	if q.Join != nil {
		right = db.Table(q.Join.Table)
	}
	side, pos := bindAttr(attr, left, right)
	return db.scanIDs(q, func(lid, rid int, hasRight bool) bool {
		var v predicate.Value
		switch {
		case side == sideLeft:
			v = left.cols[pos].value(lid)
		case side == sideRight && hasRight:
			v = right.cols[pos].value(rid)
		default:
			return true
		}
		if v.IsNull() {
			return true
		}
		return emit(v)
	})
}

// scan drives query execution, invoking emit for each matching row until
// emit returns false or rows are exhausted.
func (db *DB) scan(q Query, emit func(JoinedRow) bool) error {
	left := db.Table(q.From)
	var right *Table
	if q.Join != nil && left != nil {
		right = db.Table(q.Join.Table)
	}
	return db.scanIDs(q, func(lid, rid int, hasRight bool) bool {
		row := JoinedRow{Left: left.Row(lid)}
		if hasRight {
			row.Right = right.Row(rid)
			row.HasRight = true
		}
		return emit(row)
	})
}

// scanIDs resolves the query's tables, takes their shared data locks for
// the scan's duration (one consistent epoch per table), and runs the
// locked core.
func (db *DB) scanIDs(q Query, emit func(lid, rid int, hasRight bool) bool) error {
	left := db.Table(q.From)
	if left == nil {
		return fmt.Errorf("relstore: unknown table %q", q.From)
	}
	var right *Table
	var leftPos, rightPos int
	if q.Join != nil {
		var err error
		right, leftPos, rightPos, err = db.resolveJoin(q)
		if err != nil {
			return err
		}
	}
	unlock := lockShared(left, right)
	defer unlock()
	return db.scanIDsLocked(q, left, right, leftPos, rightPos, emit)
}

// scanIDsLocked is the row-id core of query execution: it streams the (left,
// right) row-id pairs that satisfy the query. The WHERE tree is compiled
// once into typed closures over the column vectors (no per-row
// attribute-name resolution or Value boxing), and the access path is chosen
// among: left-index candidates, a block scan (planScan) when the tree reads
// only left columns, right-index candidates walked through the join (for
// predicates that only constrain the joined table, e.g. dblp_author.aid=6),
// and a full left scan. Tombstoned rows never reach emit. Callers hold the
// state locks of both tables.
func (db *DB) scanIDsLocked(q Query, left, right *Table, leftPos, rightPos int,
	emit func(lid, rid int, hasRight bool) bool) error {
	where := q.Where
	if where == nil {
		where = predicate.True{}
	}
	var rightIdx hashIndex
	if right != nil {
		rightIdx = right.ensureIndex(rightPos)
	}

	match := rowFilter(where, left, right)

	emitLeft := func(lid int) bool {
		if left.isDead(lid) {
			return true
		}
		if right == nil {
			if match(lid, 0, false) {
				return emit(lid, 0, false)
			}
			return true
		}
		rids := rightIdx[indexKey(left.cols[leftPos].value(lid))]
		for _, rid := range rids {
			if right.isDead(rid) {
				continue
			}
			if match(lid, rid, true) {
				if !emit(lid, rid, true) {
					return false
				}
			}
		}
		return true
	}

	if leftIDs, ok := candidateIDs(left, where); ok {
		for _, lid := range leftIDs {
			if !emitLeft(lid) {
				return nil
			}
		}
		return nil
	}

	// Block scan: when the WHERE tree reads only left columns, the drained
	// scan plan is the whole live left selection; selected rows emit their
	// join partners (if any) with no per-row re-evaluation. The partner walk
	// below does the joining, so the plan is the joinless one.
	if side, ok := classifySide(where, left, right); ok && side == sideLeft {
		if p, ok := planScan(left, nil, 0, 0, where); ok {
			p.drain().ForEach(func(lid int) bool {
				if right == nil {
					return emit(lid, 0, false)
				}
				for _, rid := range rightIdx[indexKey(left.cols[leftPos].value(lid))] {
					if right.isDead(rid) {
						continue
					}
					if !emit(lid, rid, true) {
						return false
					}
				}
				return true
			})
			return nil
		}
	}

	// Right-driven path: the predicate constrains only the joined table
	// (no usable left index), but a right index narrows the right rows;
	// walk them back through the join via the left join-column index.
	// Candidates must come from attributes that actually *evaluate*
	// against the right table (bindAttr, which resolves bare names
	// left-first like JoinedRow.Get) — resolveColumn alone would happily
	// match a bare name that both tables carry, under-approximating the
	// result set.
	if right != nil {
		if rightIDs, ok := rightCandidateIDs(left, right, where); ok {
			lidx := left.ensureIndex(leftPos)
			for _, rid := range rightIDs {
				if right.isDead(rid) {
					continue
				}
				lids := lidx[indexKey(right.cols[rightPos].value(rid))]
				for _, lid := range lids {
					if left.isDead(lid) {
						continue
					}
					if match(lid, rid, true) {
						if !emit(lid, rid, true) {
							return nil
						}
					}
				}
			}
			return nil
		}
	}

	for lid := 0; lid < left.n; lid++ {
		if !emitLeft(lid) {
			return nil
		}
	}
	return nil
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

// candidateIDs inspects the predicate for index-usable equality conditions
// on t's columns and, if any are found, returns a superset of the matching
// row ids (sorted, deduplicated). The full predicate is still evaluated per
// row afterwards, so over-approximation is safe; under-approximation is not.
func candidateIDs(t *Table, p predicate.Predicate) ([]int, bool) {
	return candidateIDsResolve(t, p, func(attr string) int {
		return resolveColumn(t, attr)
	})
}

// rightCandidateIDs is candidateIDs for the joined table, resolving
// attributes exactly as evaluation does (bare names bind left-first), so a
// bare column name both tables carry never yields right-table candidates
// for a predicate that semantically filters the left table.
func rightCandidateIDs(left, right *Table, p predicate.Predicate) ([]int, bool) {
	return candidateIDsResolve(right, p, sideResolver(left, right, sideRight))
}

func candidateIDsResolve(t *Table, p predicate.Predicate, resolve func(string) int) ([]int, bool) {
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
		var all []int
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
		best := []int(nil)
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
		var all []int
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

// resolveColumn maps an attribute reference (bare or table-qualified) to a
// column position in t, or -1 when the attribute belongs to another table.
func resolveColumn(t *Table, attr string) int {
	if tbl, col, ok := splitQualified(attr); ok {
		if tbl != t.schema.Name {
			return -1
		}
		return t.ColumnIndex(col)
	}
	return t.ColumnIndex(attr)
}

func dedupeIDs(ids []int) []int {
	if len(ids) <= 1 {
		return ids
	}
	sort.Ints(ids)
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}
