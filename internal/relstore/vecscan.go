package relstore

import (
	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// This file is the vectorized half of the engine: predicates evaluate one
// column block at a time into adaptive compressed selections (bitset.Set:
// per-64k-key containers that are sorted arrays when sparse, truncated
// word vectors when dense, and runs when range-shaped). Kernels emit
// through a bitset.Builder, so a selective scan never materializes the full
// domain in words, and a zone-map bulk-accept lands as a run container.
// AND/OR/NOT compose selections with container-level set algebra, so a
// whole WHERE tree costs a handful of tight typed loops instead of one
// interpreted predicate walk per row.

// selSink is the output surface of the vectorized kernels: bitset.Builder
// for full materialized selections and bitset.Block for the streaming
// one-block-at-a-time path. The kernels are generic (monomorphized per
// sink), so the materialized hot path keeps its direct Builder calls with no
// interface dispatch.
type selSink interface {
	Set(i int)
	SetRange(lo, hi int)
}

// fullSelection returns the selection of every row id in [0, n) — one run
// container per 64k span.
func fullSelection(n int) *bitset.Set {
	s := bitset.New()
	s.AddRange(0, n)
	return s
}

// selDropDead subtracts t's tombstones from a root-level selection; no-op
// when the table has no dead rows. (Leaves cannot subtract tombstones
// themselves: a NOT above them would resurrect the dead rows.)
func (t *Table) selDropDead(sel *bitset.Set) {
	if t.nDead > 0 {
		sel.AndNotWith(t.dead)
	}
}

// evalVec evaluates a predicate over every row of t as a compressed
// selection. resolve maps attribute references to column positions; -1
// means the attribute does not bind to this table, which makes the leaf
// constant false — exactly the collapsed three-valued semantics of the row
// filter. ok=false means the tree contains a node the vectorized engine
// does not know; callers fall back to the row-at-a-time scan.
func (t *Table) evalVec(p predicate.Predicate, resolve func(string) int) (*bitset.Set, bool) {
	switch node := p.(type) {
	case predicate.True:
		return fullSelection(t.n), true
	case *predicate.Cmp:
		b := bitset.NewBuilder(t.n)
		if pos := resolve(node.Attr); pos >= 0 {
			scanCmp(t, pos, node.Op, node.Val, b, nil)
		}
		return b.Finish(), true
	case *predicate.Between:
		b := bitset.NewBuilder(t.n)
		if pos := resolve(node.Attr); pos >= 0 {
			scanBetween(t, pos, node.Lo, node.Hi, b, nil)
		}
		return b.Finish(), true
	case *predicate.In:
		b := bitset.NewBuilder(t.n)
		if pos := resolve(node.Attr); pos >= 0 {
			scanIn(t, pos, node.Vals, b, nil)
		}
		return b.Finish(), true
	case *predicate.Not:
		sel, ok := t.evalVec(node.Kid, resolve)
		if !ok {
			return nil, false
		}
		sel.Not(t.n)
		return sel, true
	case *predicate.And:
		var acc *bitset.Set
		for _, k := range node.Kids {
			sel, ok := t.evalVec(k, resolve)
			if !ok {
				return nil, false
			}
			if acc == nil {
				acc = sel
			} else {
				acc.AndWith(sel)
			}
			if acc.IsEmpty() {
				return acc, true
			}
		}
		if acc == nil { // empty conjunction is TRUE
			acc = fullSelection(t.n)
		}
		return acc, true
	case *predicate.Or:
		acc := bitset.New()
		for _, k := range node.Kids {
			sel, ok := t.evalVec(k, resolve)
			if !ok {
				return nil, false
			}
			acc.OrWith(sel)
		}
		return acc, true
	default:
		return nil, false
	}
}

// blockAt maps kernel iteration k to a block index: identity when blks is
// nil (full scan), the k-th listed block otherwise.
func blockAt(blks []int32, k int) int {
	if blks == nil {
		return k
	}
	return int(blks[k])
}

// blockIters returns the kernel iteration count for a column under an
// optional block restriction.
func blockIters(c *column, blks []int32) int {
	if blks == nil {
		return len(c.zones)
	}
	return len(blks)
}

// scanCmp is the vectorized kernel for Attr Op Literal: per block it applies
// the zone-map test, then either skips, bulk-accepts, or runs the tight
// typed row loop. NULL literals match nothing (Compare against NULL fails).
func scanCmp[S selSink](t *Table, pos int, op predicate.Op, val predicate.Value, sel S, blks []int32) {
	c := t.cols[pos]
	lit := analyzeLit(val)
	switch {
	case lit.isNum:
		scanCmpNum(t, c, op, lit.f, sel, blks)
	case lit.isStr:
		scanCmpStr(t, c, op, lit.s, sel, blks)
	}
}

func scanCmpNum[S selSink](t *Table, c *column, op predicate.Op, lit float64, sel S, blks []int32) {
	for k, nk := 0, blockIters(c, blks); k < nk; k++ {
		bi := blockAt(blks, k)
		z := &c.zones[bi]
		lo, hi := bi*blockSize, min((bi+1)*blockSize, t.n)
		if !z.hasNum {
			continue
		}
		if !z.hasNaN {
			if zoneSkipCmp(z, op, lit) {
				continue
			}
			if z.pureNum() && zoneFullCmp(z, op, lit) {
				sel.SetRange(lo, hi)
				continue
			}
		}
		if z.pureInt() {
			nums := c.nums[lo:hi]
			for i, u := range nums {
				if opMatch(cmp3f(float64(int64(u)), lit), op) {
					sel.Set(lo + i)
				}
			}
			continue
		}
		for r := lo; r < hi; r++ {
			if v, ok := c.numAt(r); ok && opMatch(cmp3f(v, lit), op) {
				sel.Set(r)
			}
		}
	}
}

// zoneSkipCmp reports that no numeric row of the block can match (valid only
// when the block has no NaN, which would "equal" everything).
func zoneSkipCmp(z *zone, op predicate.Op, lit float64) bool {
	switch op {
	case predicate.OpEq:
		return lit < z.min || lit > z.max
	case predicate.OpNe:
		return z.min == z.max && z.min == lit
	case predicate.OpLt:
		return z.min >= lit
	case predicate.OpLe:
		return z.min > lit
	case predicate.OpGt:
		return z.max <= lit
	case predicate.OpGe:
		return z.max < lit
	default:
		return true
	}
}

// zoneFullCmp reports that every row of a pure-numeric block matches.
func zoneFullCmp(z *zone, op predicate.Op, lit float64) bool {
	switch op {
	case predicate.OpEq:
		return z.min == z.max && z.min == lit
	case predicate.OpNe:
		return lit < z.min || lit > z.max
	case predicate.OpLt:
		return z.max < lit
	case predicate.OpLe:
		return z.max <= lit
	case predicate.OpGt:
		return z.min > lit
	case predicate.OpGe:
		return z.min >= lit
	default:
		return false
	}
}

func scanCmpStr[S selSink](t *Table, c *column, op predicate.Op, lit string, sel S, blks []int32) {
	if op == predicate.OpEq && !c.rawMode {
		// Dictionary equality: one code comparison per row, and a literal
		// absent from the dictionary empties the scan before touching any.
		code, ok := c.dict.code(lit)
		if !ok {
			return
		}
		for k, nk := 0, blockIters(c, blks); k < nk; k++ {
			bi := blockAt(blks, k)
			z := &c.zones[bi]
			if !z.hasStr {
				continue
			}
			lo, hi := bi*blockSize, min((bi+1)*blockSize, t.n)
			if z.pureStr() {
				codes := c.codes[lo:hi]
				for i, cd := range codes {
					if cd == code {
						sel.Set(lo + i)
					}
				}
				continue
			}
			for r := lo; r < hi; r++ {
				if c.kinds[r] == predicate.KindString && c.codes[r] == code {
					sel.Set(r)
				}
			}
		}
		return
	}
	if op == predicate.OpEq {
		// Raw-mode equality: direct string comparison per string row.
		for k, nk := 0, blockIters(c, blks); k < nk; k++ {
			bi := blockAt(blks, k)
			z := &c.zones[bi]
			if !z.hasStr {
				continue
			}
			lo, hi := bi*blockSize, min((bi+1)*blockSize, t.n)
			if z.pureStr() {
				raws := c.rawStrs[lo:hi]
				for i, s := range raws {
					if s == lit {
						sel.Set(lo + i)
					}
				}
				continue
			}
			for r := lo; r < hi; r++ {
				if c.kinds[r] == predicate.KindString && c.rawStrs[r] == lit {
					sel.Set(r)
				}
			}
		}
		return
	}
	lv := litVal{isStr: true, s: lit}
	for k, nk := 0, blockIters(c, blks); k < nk; k++ {
		bi := blockAt(blks, k)
		z := &c.zones[bi]
		if !z.hasStr {
			continue
		}
		lo, hi := bi*blockSize, min((bi+1)*blockSize, t.n)
		for r := lo; r < hi; r++ {
			if c3, ok := c.cmp3At(r, lv); ok && opMatch(c3, op) {
				sel.Set(r)
			}
		}
	}
}

// scanBetween is the kernel for Attr BETWEEN Lo AND Hi. A row matches when
// it is comparable with both bounds and lies inside; bounds of different
// classes (one numeric, one string) can never both compare, so the result
// is empty.
func scanBetween[S selSink](t *Table, pos int, lov, hiv predicate.Value, sel S, blks []int32) {
	c := t.cols[pos]
	llo, lhi := analyzeLit(lov), analyzeLit(hiv)
	switch {
	case llo.isNum && lhi.isNum:
		for k, nk := 0, blockIters(c, blks); k < nk; k++ {
			bi := blockAt(blks, k)
			z := &c.zones[bi]
			lo, hi := bi*blockSize, min((bi+1)*blockSize, t.n)
			if !z.hasNum {
				continue
			}
			if !z.hasNaN {
				if z.max < llo.f || z.min > lhi.f {
					continue
				}
				if z.pureNum() && z.min >= llo.f && z.max <= lhi.f {
					sel.SetRange(lo, hi)
					continue
				}
			}
			if z.pureInt() {
				nums := c.nums[lo:hi]
				for i, u := range nums {
					v := float64(int64(u))
					if cmp3f(v, llo.f) >= 0 && cmp3f(v, lhi.f) <= 0 {
						sel.Set(lo + i)
					}
				}
				continue
			}
			for r := lo; r < hi; r++ {
				if v, ok := c.numAt(r); ok && cmp3f(v, llo.f) >= 0 && cmp3f(v, lhi.f) <= 0 {
					sel.Set(r)
				}
			}
		}
	case llo.isStr && lhi.isStr:
		for k, nk := 0, blockIters(c, blks); k < nk; k++ {
			bi := blockAt(blks, k)
			z := &c.zones[bi]
			if !z.hasStr {
				continue
			}
			lo, hi := bi*blockSize, min((bi+1)*blockSize, t.n)
			for r := lo; r < hi; r++ {
				if c.kinds[r] != predicate.KindString {
					continue
				}
				s := c.strAt(r)
				if s >= llo.s && s <= lhi.s {
					sel.Set(r)
				}
			}
		}
	}
}

// scanIn is the kernel for Attr IN (v1, ...): numeric members match by
// widened three-way equality, string members resolve to dictionary codes
// once (absent strings can never match) — or compare raw strings when the
// column has migrated off the dictionary.
func scanIn[S selSink](t *Table, pos int, vals []predicate.Value, sel S, blks []int32) {
	c := t.cols[pos]
	var nums []float64
	var codes []uint32
	var strs []string
	nanVal := false
	for _, v := range vals {
		lv := analyzeLit(v)
		switch {
		case lv.isNum:
			nums = append(nums, lv.f)
			if lv.f != lv.f { // a NaN member "equals" every number
				nanVal = true
			}
		case lv.isStr:
			if c.rawMode {
				strs = append(strs, lv.s)
			} else if code, ok := c.dict.code(lv.s); ok {
				codes = append(codes, code)
			}
		}
	}
	if len(nums) == 0 && len(codes) == 0 && len(strs) == 0 {
		return
	}
	for k, nk := 0, blockIters(c, blks); k < nk; k++ {
		bi := blockAt(blks, k)
		z := &c.zones[bi]
		lo, hi := bi*blockSize, min((bi+1)*blockSize, t.n)
		if !z.hasNum && !z.hasStr {
			continue
		}
		if !z.hasStr && !z.hasNaN && !nanVal && len(nums) > 0 {
			inRange := false
			for _, f := range nums {
				if f >= z.min && f <= z.max {
					inRange = true
					break
				}
			}
			if !inRange {
				continue
			}
		}
		for r := lo; r < hi; r++ {
			switch c.kinds[r] {
			case predicate.KindInt, predicate.KindFloat:
				v, _ := c.numAt(r)
				for _, f := range nums {
					if cmp3f(v, f) == 0 {
						sel.Set(r)
						break
					}
				}
			case predicate.KindString:
				if c.rawMode {
					s := c.rawStrs[r]
					for _, m := range strs {
						if s == m {
							sel.Set(r)
							break
						}
					}
					continue
				}
				cd := c.codes[r]
				for _, code := range codes {
					if cd == code {
						sel.Set(r)
						break
					}
				}
			}
		}
	}
}
