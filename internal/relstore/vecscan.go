package relstore

import (
	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// This file is relstore's one scan core. A scan plan produces the selection
// of live left rows matching a (possibly joined) WHERE one 1024-row block at
// a time: the predicate tree evaluates per block into a bitset.Block, each
// leaf asking the block's zone entry first (skip, bulk-accept, or run the
// tight typed row loop), and AND/OR/NOT compose word-parallel. Join rows are
// admitted only through the table pair's cached join entry — the existence
// vector and right→left CSR that joinrepair.go keeps exact under mutation.
// A scan is the plan's drain into a bitset.Builder, block by block.

// The kernels address rows block-relative through bitset.Block, so the two
// packages must agree on the block width.
var _ [bitset.BlockBits - blockSize]struct{}
var _ [blockSize - bitset.BlockBits]struct{}

// scanPlan is one planned scan over table t, in one of two modes:
//
//   - scan mode (cand == nil): a zone prepass marks the blocks the tree can
//     match; each surviving block is the tree's block selection ∧ the join
//     entry's existence block ∧ ¬tombstones. Work follows the blocks the
//     zone maps cannot rule out.
//
//   - candidate mode: a right-side restriction resolved its matching right
//     rows up front and stitched them through the join entry's CSR into the
//     set of admitted live left rows; each block is that set's window ∧ the
//     tree. Work follows the answer, not the table.
type scanPlan struct {
	t        *Table
	tree     predicate.Predicate // nil = every row
	resolve  func(string) int
	join     *bitset.Set // scan mode, existence-only join: left rows with a live partner
	cand     *bitset.Set // candidate mode: admitted left rows; nil = scan mode
	possible []bool      // scan mode: zone prepass verdict per block
	maxBlock int         // last block that can yield a row; -1 = provably empty
	be       blockEval
	tmp      bitset.Block
}

// planScan plans a WHERE already split by join side (splitBySide) over
// left, joined with right when right is non-nil. ok=false means a node
// vecOK refuses, and the caller keeps the row loop. Callers hold the state
// locks of both tables.
func planScan(left, right *Table, leftPos, rightPos int, leftTree, rightTree predicate.Predicate) (*scanPlan, bool) {
	if (leftTree != nil && !vecOK(leftTree)) || (rightTree != nil && !vecOK(rightTree)) {
		return nil, false
	}
	p := left.treePlan(leftTree, sideResolver(left, right, sideLeft))
	if right != nil {
		je := left.joinEntry(right, leftPos, rightPos)
		if rightTree != nil {
			p.cand = admitPartners(left, right, je, rightTree)
			if m, ok := p.cand.Max(); ok {
				p.maxBlock = m / blockSize
			}
			return p, true
		}
		p.join = je.sel
	}
	return p.zonePrepass(), true
}

// treePlan is the joinless plan of tree over t; True and nil select every
// row. zonePrepass (scan mode) or a candidate set must follow.
func (t *Table) treePlan(tree predicate.Predicate, resolve func(string) int) *scanPlan {
	if _, isTrue := tree.(predicate.True); isTrue {
		tree = nil
	}
	return &scanPlan{t: t, tree: tree, resolve: resolve, maxBlock: -1}
}

// zonePrepass puts p in scan mode: one blockPossible verdict per block.
func (p *scanPlan) zonePrepass() *scanPlan {
	p.possible = make([]bool, (p.t.n+blockSize-1)/blockSize)
	for bi := range p.possible {
		if p.tree == nil || p.t.blockPossible(p.tree, p.resolve, bi) {
			p.possible[bi] = true
			p.maxBlock = bi
		}
	}
	return p
}

// admitPartners resolves a right-side restriction into the live left rows it
// admits: the right rows satisfying rightTree — index candidates re-checked
// per row when rightCandidateIDs applies, a drained right-side plan
// otherwise — stitched through the join entry's right→left CSR. Distinct
// right rows reaching one left row dedup in the set.
func admitPartners(left, right *Table, je *existsEntry, rightTree predicate.Predicate) *bitset.Set {
	hit := bitset.New()
	stitch := func(rid int) bool {
		for _, lid := range je.partners(rid) {
			hit.Add(int(lid))
		}
		return true
	}
	if rids, ok := rightCandidateIDs(left, right, rightTree); ok {
		rf := rowFilter(rightTree, left, right)
		for _, rid := range rids {
			if !right.isDead(int(rid)) && rf(0, int(rid), true) {
				stitch(int(rid))
			}
		}
	} else {
		right.treePlan(rightTree, sideResolver(left, right, sideRight)).zonePrepass().drain().ForEach(stitch)
	}
	if left.nDead > 0 { // partner lists may keep tombstoned left rows
		hit.AndNotWith(left.dead)
	}
	return hit
}

// next evaluates blocks from..maxBlock and returns the first whose selection
// is non-empty, left in dst; ok=false when the plan is exhausted.
func (p *scanPlan) next(from int, dst *bitset.Block) (int, bool) {
	for b := from; b <= p.maxBlock; b++ {
		if p.cand == nil {
			if p.possible[b] && p.scanBlock(b, dst) {
				return b, true
			}
			continue
		}
		nxt, ok := p.cand.NextSet(b * blockSize)
		if !ok {
			break
		}
		b = nxt / blockSize
		p.cand.ReadBlock(b*blockSize, dst)
		if p.tree != nil {
			p.t.evalBlock(p.tree, p.resolve, b, &p.tmp, &p.be)
			dst.And(&p.tmp)
		}
		if dst.Any() {
			return b, true
		}
	}
	return 0, false
}

// scanBlock computes scan-mode block b into dst — tree ∧ join existence ∧
// ¬tombstones — and reports whether it holds a row. Tombstones come off at
// the root, never in a leaf: a NOT above the leaf would resurrect them.
func (p *scanPlan) scanBlock(b int, dst *bitset.Block) bool {
	t, base := p.t, b*blockSize
	if p.tree == nil {
		dst.Reset(base)
		dst.SetRange(base, min(base+blockSize, t.n))
	} else {
		t.evalBlock(p.tree, p.resolve, b, dst, &p.be)
		if !dst.Any() {
			return false
		}
	}
	if p.join != nil {
		p.join.ReadBlock(base, &p.tmp)
		dst.And(&p.tmp)
	}
	if t.nDead > 0 {
		t.dead.ReadBlock(base, &p.tmp)
		dst.AndNot(&p.tmp)
	}
	return dst.Any()
}

// drain materializes the plan: every non-empty block ORed whole into one
// compressed set. A candidate plan with no tree is its candidate set.
func (p *scanPlan) drain() *bitset.Set {
	if p.cand != nil && p.tree == nil {
		return p.cand
	}
	b := bitset.NewBuilder(p.t.n)
	var blk bitset.Block
	for bi, ok := p.next(0, &blk); ok; bi, ok = p.next(bi+1, &blk) {
		b.AppendBlock(&blk)
	}
	return b.Finish()
}

// blockEval is the reusable scratch of the per-block tree evaluator: spare
// Blocks for inner nodes.
type blockEval struct {
	free []*bitset.Block
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

// evalBlock evaluates a vecOK predicate tree over block bi into dst. resolve
// maps attribute references to column positions; -1 means the attribute
// does not bind to this table, which makes the leaf constant false — exactly
// the collapsed three-valued semantics of the row filter. Leaves take the
// zone verdict, then bulk-accept or run their row loop; inner nodes combine
// word-parallel.
func (t *Table) evalBlock(p predicate.Predicate, resolve func(string) int, bi int, dst *bitset.Block, be *blockEval) {
	base := bi * blockSize
	hi := min(base+blockSize, t.n)
	dst.Reset(base)
	switch node := p.(type) {
	case predicate.True:
		dst.SetRange(base, hi)
	case *predicate.Cmp, *predicate.Between, *predicate.In:
		switch c, v := t.leafZone(p, resolve, bi); v {
		case zoneAll:
			dst.SetRange(base, hi)
		case zoneMaybe:
			scanLeaf(p, c, base, hi, dst)
		}
	case *predicate.Not:
		t.evalBlock(node.Kid, resolve, bi, dst, be)
		dst.Not(t.n)
	case *predicate.And:
		if len(node.Kids) == 0 { // empty conjunction is TRUE
			dst.SetRange(base, hi)
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

// vecOK reports whether every node of p is one the block evaluator knows —
// the one up-front refusal: a tree it rejects never starts a block scan.
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

// blockPossible is the zone prepass: can any row of block bi satisfy p?
// Leaves answer with their zone verdict; a NOT can match rows its kid's
// zones exclude, so it never prunes.
func (t *Table) blockPossible(p predicate.Predicate, resolve func(string) int, bi int) bool {
	switch node := p.(type) {
	case *predicate.Cmp, *predicate.Between, *predicate.In:
		_, v := t.leafZone(p, resolve, bi)
		return v != zoneNone
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

// zoneVerdict is what one block's zone entry proves about one leaf.
type zoneVerdict uint8

const (
	zoneMaybe zoneVerdict = iota // the rows must be read
	zoneNone                     // no row of the block can match
	zoneAll                      // every row of the block matches
)

// leafZone is the one zone test, shared by the prepass and the kernels: the
// verdict of block bi's zone entry on a Cmp, Between or In leaf, with the
// leaf's column. An attribute that does not bind to t, a NULL literal and
// mixed-class BETWEEN bounds match nothing. zoneMaybe may over-approximate
// (the row loop re-checks); zoneNone on a block holding a matching row
// would be a wrong answer. A NaN row "equals" every number, so a block
// holding one is never pruned or bulk-accepted on a numeric literal.
func (t *Table) leafZone(p predicate.Predicate, resolve func(string) int, bi int) (*column, zoneVerdict) {
	leafCol := func(attr string) (*column, *zone) {
		if pos := resolve(attr); pos >= 0 {
			c := t.cols[pos]
			return c, &c.zones[bi]
		}
		return nil, nil
	}
	switch node := p.(type) {
	case *predicate.Cmp:
		c, z := leafCol(node.Attr)
		if z == nil {
			return nil, zoneNone
		}
		switch lit := analyzeLit(node.Val); {
		case lit.isNum:
			switch {
			case !z.hasNum || (!z.hasNaN && zoneSkipCmp(z, node.Op, lit.f)):
				return c, zoneNone
			case z.pureNum() && zoneFullCmp(z, node.Op, lit.f):
				return c, zoneAll
			}
			return c, zoneMaybe
		case lit.isStr && z.hasStr:
			return c, zoneMaybe
		}
		return c, zoneNone
	case *predicate.Between:
		c, z := leafCol(node.Attr)
		if z == nil {
			return nil, zoneNone
		}
		lo, hi := analyzeLit(node.Lo), analyzeLit(node.Hi)
		switch {
		case lo.isNum && hi.isNum:
			switch {
			case !z.hasNum || (!z.hasNaN && (z.max < lo.f || z.min > hi.f)):
				return c, zoneNone
			case z.pureNum() && z.min >= lo.f && z.max <= hi.f:
				return c, zoneAll
			}
			return c, zoneMaybe
		case lo.isStr && hi.isStr && z.hasStr:
			return c, zoneMaybe
		}
		return c, zoneNone
	case *predicate.In:
		c, z := leafCol(node.Attr)
		if z == nil {
			return nil, zoneNone
		}
		for _, v := range node.Vals {
			lv := analyzeLit(v)
			if (lv.isStr && z.hasStr) || (lv.isNum && z.hasNum &&
				(z.hasNaN || lv.f != lv.f || (lv.f >= z.min && lv.f <= z.max))) {
				return c, zoneMaybe
			}
		}
		return c, zoneNone
	}
	return nil, zoneMaybe
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

// scanLeaf runs a leaf's row loop over rows [lo, hi) of one block whose zone
// verdict is zoneMaybe.
func scanLeaf(p predicate.Predicate, c *column, lo, hi int, dst *bitset.Block) {
	z := &c.zones[lo/blockSize]
	switch node := p.(type) {
	case *predicate.Cmp:
		scanCmp(c, z, node.Op, analyzeLit(node.Val), lo, hi, dst)
	case *predicate.Between:
		scanBetween(c, z, analyzeLit(node.Lo), analyzeLit(node.Hi), lo, hi, dst)
	case *predicate.In:
		scanIn(c, node.Vals, lo, hi, dst)
	}
}

// scanCmp is the kernel for Attr Op Literal. The verdict guarantees the
// literal is numeric, or a string over a block holding strings.
func scanCmp(c *column, z *zone, op predicate.Op, lit litVal, lo, hi int, dst *bitset.Block) {
	switch {
	case lit.isNum && z.pureInt():
		for i, u := range c.nums[lo:hi] {
			if opMatch(cmp3f(float64(int64(u)), lit.f), op) {
				dst.Set(lo + i)
			}
		}
	case lit.isNum:
		for r := lo; r < hi; r++ {
			if v, ok := c.numAt(r); ok && opMatch(cmp3f(v, lit.f), op) {
				dst.Set(r)
			}
		}
	case op == predicate.OpEq && !c.rawMode:
		// Dictionary equality: one code comparison per row, and a literal
		// absent from the dictionary matches nothing.
		code, ok := c.dict.code(lit.s)
		switch {
		case !ok:
		case z.pureStr():
			for i, cd := range c.codes[lo:hi] {
				if cd == code {
					dst.Set(lo + i)
				}
			}
		default:
			for r := lo; r < hi; r++ {
				if c.kinds[r] == predicate.KindString && c.codes[r] == code {
					dst.Set(r)
				}
			}
		}
	case op == predicate.OpEq && z.pureStr():
		// Raw-mode equality: direct string comparison per row.
		for i, s := range c.rawStrs[lo:hi] {
			if s == lit.s {
				dst.Set(lo + i)
			}
		}
	case op == predicate.OpEq:
		for r := lo; r < hi; r++ {
			if c.kinds[r] == predicate.KindString && c.rawStrs[r] == lit.s {
				dst.Set(r)
			}
		}
	default:
		for r := lo; r < hi; r++ {
			if c3, ok := c.cmp3At(r, lit); ok && opMatch(c3, op) {
				dst.Set(r)
			}
		}
	}
}

// scanBetween is the kernel for Attr BETWEEN Lo AND Hi: a row matches when
// it is comparable with both bounds and lies inside. The verdict guarantees
// the bounds are both numeric or both strings.
func scanBetween(c *column, z *zone, llo, lhi litVal, lo, hi int, dst *bitset.Block) {
	in := func(v float64) bool { return cmp3f(v, llo.f) >= 0 && cmp3f(v, lhi.f) <= 0 }
	switch {
	case llo.isNum && z.pureInt():
		for i, u := range c.nums[lo:hi] {
			if in(float64(int64(u))) {
				dst.Set(lo + i)
			}
		}
	case llo.isNum:
		for r := lo; r < hi; r++ {
			if v, ok := c.numAt(r); ok && in(v) {
				dst.Set(r)
			}
		}
	default:
		for r := lo; r < hi; r++ {
			if c.kinds[r] == predicate.KindString {
				if s := c.strAt(r); s >= llo.s && s <= lhi.s {
					dst.Set(r)
				}
			}
		}
	}
}

// scanIn is the kernel for Attr IN (v1, ...): numeric members match by
// widened three-way equality, string members resolve to dictionary codes
// once (absent strings can never match) — or compare raw strings when the
// column has migrated off the dictionary.
func scanIn(c *column, vals []predicate.Value, lo, hi int, dst *bitset.Block) {
	var nums []float64
	var codes []uint32
	var strs []string
	for _, v := range vals {
		lv := analyzeLit(v)
		switch {
		case lv.isNum:
			nums = append(nums, lv.f)
		case lv.isStr && c.rawMode:
			strs = append(strs, lv.s)
		case lv.isStr:
			if code, ok := c.dict.code(lv.s); ok {
				codes = append(codes, code)
			}
		}
	}
	for r := lo; r < hi; r++ {
		switch c.kinds[r] {
		case predicate.KindInt, predicate.KindFloat:
			v, _ := c.numAt(r)
			for _, f := range nums {
				if cmp3f(v, f) == 0 {
					dst.Set(r)
					break
				}
			}
		case predicate.KindString:
			if c.rawMode {
				s := c.rawStrs[r]
				for _, m := range strs {
					if s == m {
						dst.Set(r)
						break
					}
				}
				continue
			}
			cd := c.codes[r]
			for _, code := range codes {
				if cd == code {
					dst.Set(r)
					break
				}
			}
		}
	}
}
