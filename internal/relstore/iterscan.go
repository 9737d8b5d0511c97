package relstore

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// This file is the streaming half of the scan engine: a pull-based block
// iterator that runs the same vectorized kernels as ScanAttrRowSet, but one
// 1024-row block at a time into bitset.Block scratches — a selection never
// round-trips through a fully materialized bitset.Set, and the join side is
// answered by per-row index probes (or pre-resolved candidate rows) instead
// of the O(n)-to-build existence vector / right→left CSR. Consumers that
// stop pulling early (the top-k threshold rule) simply never pay for the
// remaining blocks.

// The kernels address rows block-relative through bitset.Block, so the two
// packages must agree on the block width.
var _ [bitset.BlockBits - blockSize]struct{}
var _ [blockSize - bitset.BlockBits]struct{}

// ErrStreamUnsupported reports a query shape the streaming iterator cannot
// serve (mixed-side conjuncts, nodes the vectorized kernels don't know, a
// Limit, or a non-left attr). Callers fall back to the materialized path.
var ErrStreamUnsupported = errors.New("relstore: query shape unsupported by streaming scan")

// AttrRowIter streams the rows ScanAttrRowSet would select, block by block,
// in ascending row order. Its group holds the tables' shared state locks from
// Open to Close, so one scan sees one consistent epoch; keep groups
// short-lived (they block writers).
type AttrRowIter struct {
	left, right       *Table
	leftPos, rightPos int
	attrPos           int
	nBlocks           int
	maxBlock          int // last block that can yield a row; -1 = provably empty
	cur               int // next block to consider

	leftTree predicate.Predicate // nil = no left-side restriction
	resolve  func(string) int
	probe    func(lid int) bool // join admission per row; nil = no join test
	cand     *bitset.Set        // candidate mode: admitted rows; nil = scan mode
	possible []bool             // scan mode: zone-map verdict per block

	be      blockEval
	sel     bitset.Block
	deadBlk bitset.Block
	lids    []int32
	vals    []int64
}

// AttrRowIterGroup is a set of iterators over one consistent snapshot: all
// distinct tables are share-locked once, in canonical order, before any
// iterator plans — the safe way to stream several predicates of one profile
// concurrently without interleaving lock acquisition with a waiting writer.
type AttrRowIterGroup struct {
	Iters  []*AttrRowIter
	unlock func()
}

// OpenAttrRowIterGroup opens one streaming iterator per query, all over the
// same attr and the same locked snapshot. On error nothing stays locked.
func (db *DB) OpenAttrRowIterGroup(qs []Query, attr string) (*AttrRowIterGroup, error) {
	var tables []*Table
	for _, q := range qs {
		t := db.Table(q.From)
		if t == nil {
			return nil, fmt.Errorf("relstore: unknown table %q", q.From)
		}
		tables = append(tables, t)
		if q.Join != nil {
			r := db.Table(q.Join.Table)
			if r == nil {
				return nil, fmt.Errorf("relstore: unknown join table %q", q.Join.Table)
			}
			tables = append(tables, r)
		}
	}
	unlock := lockSharedTables(tables)
	g := &AttrRowIterGroup{unlock: unlock}
	for _, q := range qs {
		it, err := db.planAttrRowIter(q, attr)
		if err != nil {
			unlock()
			return nil, err
		}
		g.Iters = append(g.Iters, it)
	}
	return g, nil
}

// Close releases the group's snapshot locks. Idempotent.
func (g *AttrRowIterGroup) Close() {
	if g.unlock != nil {
		g.unlock()
		g.unlock = nil
	}
}

// lockSharedTables takes the shared state locks of a table set —
// deduplicated, in creation (seq) order, the multi-table generalization of
// lockShared — and returns the paired release.
func lockSharedTables(ts []*Table) func() {
	sorted := make([]*Table, 0, len(ts))
	for _, t := range ts {
		if !slices.Contains(sorted, t) {
			sorted = append(sorted, t)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].seq < sorted[j].seq })
	for _, t := range sorted {
		t.state.RLock()
	}
	return func() {
		for i := len(sorted) - 1; i >= 0; i-- {
			sorted[i].state.RUnlock()
		}
	}
}

// planAttrRowIter validates the query shape and builds the block plan.
// Callers hold the state locks of every involved table.
//
// Two plan modes:
//
//   - scan mode: every block gets a zone-map prepass verdict; surviving
//     blocks evaluate the left predicate tree through the kernels into a
//     Block scratch, subtract tombstones, and admit rows through the join
//     probe. Work is proportional to the blocks the zone maps cannot rule
//     out.
//
//   - candidate mode: when the right-side restriction is index-usable (the
//     ubiquitous author.aid = N), the matching right rows are resolved up
//     front and walked back through the left join index, bucketing admitted
//     rows per block. Work is proportional to the answer, not the table.
func (db *DB) planAttrRowIter(q Query, attr string) (*AttrRowIter, error) {
	left, right, leftPos, rightPos, attrPos, where, err := db.resolveAttrRowScan(q, attr)
	if err != nil {
		return nil, err
	}
	it := &AttrRowIter{
		left: left, right: right,
		leftPos: leftPos, rightPos: rightPos, attrPos: attrPos,
		nBlocks:  (left.n + blockSize - 1) / blockSize,
		maxBlock: -1,
	}
	it.resolve = sideResolver(left, right, sideLeft)

	leftTree, rightTree, ok := splitBySide(where, left, right)
	if !ok {
		return nil, ErrStreamUnsupported
	}
	if leftTree != nil {
		if _, isTrue := leftTree.(predicate.True); isTrue {
			leftTree = nil
		} else if !vecOK(leftTree) {
			return nil, ErrStreamUnsupported
		}
	}
	it.leftTree = leftTree

	if right != nil {
		rightIdx := right.ensureIndex(rightPos)
		lc := left.cols[leftPos]
		if rightTree == nil {
			// Existence-only join: any live partner admits the row.
			it.probe = func(lid int) bool {
				for _, rid := range rightIdx[indexKey(lc.value(lid))] {
					if !right.isDead(rid) {
						return true
					}
				}
				return false
			}
		} else {
			rf, okc := compileIDFilter(rightTree, left, right)
			if !okc {
				return nil, ErrStreamUnsupported
			}
			if rids, ok := rightCandidateIDs(left, right, rightTree); ok {
				return it.planCandidates(rids, rf)
			}
			it.probe = func(lid int) bool {
				for _, rid := range rightIdx[indexKey(lc.value(lid))] {
					if !right.isDead(rid) && rf(lid, rid, true) {
						return true
					}
				}
				return false
			}
		}
	}

	// Scan mode: zone-map prepass over every block.
	it.possible = make([]bool, it.nBlocks)
	for bi := range it.possible {
		if it.leftTree == nil || left.blockPossible(it.leftTree, it.resolve, bi) {
			it.possible[bi] = true
			it.maxBlock = bi
		}
	}
	return it, nil
}

// planCandidates finishes an index-usable right restriction: filter the
// candidate right rows, walk each one's left partners, and collect the
// admitted left rows (live, left-predicate-passing) in a compressed set —
// distinct right rows reaching the same left row dedup for free, and
// NextBlock pulls sorted 1024-row windows straight out of the containers.
func (it *AttrRowIter) planCandidates(rids []int, rf idFilter) (*AttrRowIter, error) {
	left, right := it.left, it.right
	var lf idFilter
	if it.leftTree != nil {
		var ok bool
		lf, ok = compileIDFilter(it.leftTree, left, right)
		if !ok {
			return nil, ErrStreamUnsupported
		}
	}
	lidx := left.ensureIndex(it.leftPos)
	rc := right.cols[it.rightPos]
	it.cand = bitset.New()
	for _, rid := range rids {
		if right.isDead(rid) || !rf(0, rid, true) {
			continue
		}
		for _, lid := range lidx[indexKey(rc.value(rid))] {
			if left.isDead(lid) {
				continue
			}
			if lf != nil && !lf(lid, 0, false) {
				continue
			}
			it.cand.Add(lid)
		}
	}
	if m, ok := it.cand.Max(); ok {
		it.maxBlock = m / blockSize
	}
	return it, nil
}

// NumBlocks returns the number of blocks covering the scanned table.
func (it *AttrRowIter) NumBlocks() int { return it.nBlocks }

// ZoneSkipped returns how many blocks the zone-map prepass ruled out at
// plan time — blocks NextBlock will never evaluate. Candidate mode reports
// 0: its work is proportional to the answer, not to surviving blocks, so
// "skipped" has no block-count meaning there.
func (it *AttrRowIter) ZoneSkipped() int {
	if it.possible == nil {
		return 0
	}
	n := 0
	for _, ok := range it.possible {
		if !ok {
			n++
		}
	}
	return n
}

// MaxBlock returns the last block index that can still yield a row (-1 when
// the scan is provably empty) — the bound that lets a consumer retire this
// predicate from its stopping rule.
func (it *AttrRowIter) MaxBlock() int { return it.maxBlock }

// NextBlock advances to the next block containing at least one matching row
// and returns its index plus the matching rows (ascending row ids with
// their attr values, rows with non-convertible attrs dropped exactly like
// ScanAttrRowSet). The returned slices are reused by the next call.
// ok=false means the scan is exhausted. A consumer that stops pulling
// leaves all later blocks unevaluated.
func (it *AttrRowIter) NextBlock() (bi int, lids []int32, vals []int64, ok bool) {
	for it.cur <= it.maxBlock {
		var b int
		if it.cand != nil {
			nxt, any := it.cand.NextSet(it.cur * blockSize)
			if !any {
				break
			}
			b = nxt / blockSize
			it.cur = b + 1
			it.cand.ReadBlock(b*blockSize, &it.sel)
			it.emitSel(false)
		} else {
			b = it.cur
			it.cur++
			if !it.possible[b] {
				continue
			}
			it.evalScanBlock(b)
		}
		if len(it.lids) > 0 {
			return b, it.lids, it.vals, true
		}
	}
	return 0, nil, nil, false
}

// emitSel converts the selected rows of it.sel into the output slices; the
// join probe only applies in scan mode (candidate rows were admitted at plan
// time).
func (it *AttrRowIter) emitSel(probed bool) {
	it.lids, it.vals = it.lids[:0], it.vals[:0]
	c := it.left.cols[it.attrPos]
	it.sel.ForEach(func(lid int) bool {
		if probed && it.probe != nil && !it.probe(lid) {
			return true
		}
		if v, vok := c.intAt(lid); vok {
			it.lids = append(it.lids, int32(lid))
			it.vals = append(it.vals, v)
		}
		return true
	})
}

// evalScanBlock runs the kernels over one block (scan mode): left tree into
// the Block scratch, tombstone subtraction, then per-row join probe and
// attr conversion.
func (it *AttrRowIter) evalScanBlock(b int) {
	t := it.left
	base := b * blockSize
	it.lids, it.vals = it.lids[:0], it.vals[:0]
	sel := &it.sel
	if it.leftTree == nil {
		sel.Reset(base)
		sel.SetRange(base, min(base+blockSize, t.n))
	} else {
		t.evalBlock(it.leftTree, it.resolve, b, sel, &it.be)
		if !sel.Any() {
			return
		}
	}
	if t.nDead > 0 {
		t.dead.ReadBlock(base, &it.deadBlk)
		sel.AndNot(&it.deadBlk)
	}
	it.emitSel(true)
}

// blockEval is the reusable scratch of the per-block tree evaluator: spare
// Blocks for inner nodes and the one-element block-restriction list the
// kernels take.
type blockEval struct {
	free []*bitset.Block
	blks [1]int32
}

func (be *blockEval) get() *bitset.Block {
	if n := len(be.free); n > 0 {
		b := be.free[n-1]
		be.free = be.free[:n-1]
		return b
	}
	return new(bitset.Block)
}

func (be *blockEval) put(b *bitset.Block) { be.free = append(be.free, b) }

// evalBlock evaluates a vecOK predicate tree over one block into dst — the
// Block-granular mirror of evalVec's composition: leaves run the vectorized
// kernels restricted to this block, inner nodes combine word-parallel.
func (t *Table) evalBlock(p predicate.Predicate, resolve func(string) int, bi int, dst *bitset.Block, be *blockEval) {
	base := bi * blockSize
	dst.Reset(base)
	be.blks[0] = int32(bi)
	switch node := p.(type) {
	case predicate.True:
		dst.SetRange(base, min(base+blockSize, t.n))
	case *predicate.Cmp:
		if pos := resolve(node.Attr); pos >= 0 {
			scanCmp(t, pos, node.Op, node.Val, dst, be.blks[:])
		}
	case *predicate.Between:
		if pos := resolve(node.Attr); pos >= 0 {
			scanBetween(t, pos, node.Lo, node.Hi, dst, be.blks[:])
		}
	case *predicate.In:
		if pos := resolve(node.Attr); pos >= 0 {
			scanIn(t, pos, node.Vals, dst, be.blks[:])
		}
	case *predicate.Not:
		t.evalBlock(node.Kid, resolve, bi, dst, be)
		dst.Not(t.n)
	case *predicate.And:
		if len(node.Kids) == 0 { // empty conjunction is TRUE
			dst.SetRange(base, min(base+blockSize, t.n))
			return
		}
		t.evalBlock(node.Kids[0], resolve, bi, dst, be)
		tmp := be.get()
		for _, k := range node.Kids[1:] {
			if !dst.Any() {
				break
			}
			t.evalBlock(k, resolve, bi, tmp, be)
			dst.And(tmp)
		}
		be.put(tmp)
	case *predicate.Or:
		tmp := be.get()
		for _, k := range node.Kids {
			t.evalBlock(k, resolve, bi, tmp, be)
			dst.Or(tmp)
		}
		be.put(tmp)
	}
}

// vecOK reports whether every node of p is one the vectorized kernels know —
// the upfront version of the mid-walk ok=false evalVec reports, needed
// because the iterator must refuse a tree before streaming starts.
func vecOK(p predicate.Predicate) bool {
	switch node := p.(type) {
	case predicate.True, *predicate.Cmp, *predicate.Between, *predicate.In:
		return true
	case *predicate.Not:
		return vecOK(node.Kid)
	case *predicate.And:
		for _, k := range node.Kids {
			if !vecOK(k) {
				return false
			}
		}
		return true
	case *predicate.Or:
		for _, k := range node.Kids {
			if !vecOK(k) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// blockPossible is the zone-map prepass: can any row of block bi satisfy p?
// Over-approximation is fine (the kernels re-check); returning false for a
// block with a matching row would be a wrong answer, so every uncertain
// case says true. The leaf tests mirror the kernels' own zone skips.
func (t *Table) blockPossible(p predicate.Predicate, resolve func(string) int, bi int) bool {
	switch node := p.(type) {
	case predicate.True:
		return true
	case *predicate.Cmp:
		pos := resolve(node.Attr)
		if pos < 0 {
			return false
		}
		z := &t.cols[pos].zones[bi]
		lit := analyzeLit(node.Val)
		switch {
		case lit.isNum:
			if !z.hasNum {
				return false
			}
			return z.hasNaN || !zoneSkipCmp(z, node.Op, lit.f)
		case lit.isStr:
			return z.hasStr
		default: // NULL literal matches nothing
			return false
		}
	case *predicate.Between:
		pos := resolve(node.Attr)
		if pos < 0 {
			return false
		}
		z := &t.cols[pos].zones[bi]
		llo, lhi := analyzeLit(node.Lo), analyzeLit(node.Hi)
		switch {
		case llo.isNum && lhi.isNum:
			if !z.hasNum {
				return false
			}
			return z.hasNaN || !(z.max < llo.f || z.min > lhi.f)
		case llo.isStr && lhi.isStr:
			return z.hasStr
		default: // mixed-class bounds can never both compare
			return false
		}
	case *predicate.In:
		pos := resolve(node.Attr)
		if pos < 0 {
			return false
		}
		z := &t.cols[pos].zones[bi]
		for _, v := range node.Vals {
			lv := analyzeLit(v)
			switch {
			case lv.isStr && z.hasStr:
				return true
			case lv.isNum && z.hasNum:
				if z.hasNaN || lv.f != lv.f || (lv.f >= z.min && lv.f <= z.max) {
					return true
				}
			}
		}
		return false
	case *predicate.Not:
		// A NOT can match rows its kid's zones exclude; no pruning.
		return true
	case *predicate.And:
		for _, k := range node.Kids {
			if !t.blockPossible(k, resolve, bi) {
				return false
			}
		}
		return true
	case *predicate.Or:
		for _, k := range node.Kids {
			if t.blockPossible(k, resolve, bi) {
				return true
			}
		}
		return false
	default:
		return true
	}
}
