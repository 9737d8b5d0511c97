package relstore

import (
	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// This file is the block half of a compiled plan (plan.go). A block scan
// produces the selection of live left rows matching a (possibly joined)
// WHERE one 1024-row block at a time: the compiled tree evaluates per block
// into a bitset.Block through its nodes' block methods — each leaf asks the
// block's zone entry first (skip, bulk-accept, or run its kernel), and
// AND/OR/NOT compose word-parallel. Join rows are admitted only through the
// table pair's cached join entry — the existence vector and right→left CSR
// that joinrepair.go keeps exact under mutation. A scan is the block scan's
// drain into a bitset.Builder, block by block.

// The kernels address rows block-relative through bitset.Block, so the two
// packages must agree on the block width.
var _ [bitset.BlockBits - blockSize]struct{}
var _ [blockSize - bitset.BlockBits]struct{}

// blockScan is one run of a plan's block path over table t, in one of two
// modes. It is the run's own scratch: the plan it runs stays untouched.
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
type blockScan struct {
	t        *Table
	tree     node        // nil = every row
	join     *bitset.Set // scan mode, existence-only join: left rows with a live partner
	cand     *bitset.Set // candidate mode: admitted left rows; nil = scan mode
	possible []bool      // scan mode: zone prepass verdict per block
	maxBlock int         // last block that can yield a row; -1 = provably empty
	be       blockEval
	tmp      bitset.Block
}

// blockScan starts a run of the plan's block path (p.block must hold).
// Callers hold the state locks of both tables.
func (p *Plan) blockScan() *blockScan {
	s := &blockScan{t: p.left, tree: p.rowTree, maxBlock: -1}
	if p.right != nil {
		je := p.left.joinEntry(p.right, p.leftPos, p.rightPos)
		if p.pairTree != nil {
			s.cand = p.admitPartners(je)
			if m, ok := s.cand.Max(); ok {
				s.maxBlock = m / blockSize
			}
			return s
		}
		s.join = je.sel
	}
	return s.zonePrepass()
}

// zonePrepass puts s in scan mode: one possible verdict per block.
func (s *blockScan) zonePrepass() *blockScan {
	s.possible = make([]bool, (s.t.n+blockSize-1)/blockSize)
	for bi := range s.possible {
		if s.tree == nil || s.tree.possible(bi) {
			s.possible[bi] = true
			s.maxBlock = bi
		}
	}
	return s
}

// admitPartners resolves the plan's right-side restriction into the live
// left rows it admits: the right rows satisfying it — index candidates
// re-checked per row when the indexes at hand can answer it, a drained
// right-side block scan otherwise — stitched through the join entry's
// right→left CSR. Distinct right rows reaching one left row dedup in the
// set.
func (p *Plan) admitPartners(je *existsEntry) *bitset.Set {
	hit := bitset.New()
	stitch := func(rid int) bool {
		for _, lid := range je.partners(rid) {
			hit.Add(int(lid))
		}
		return true
	}
	if rids, ok := candidateIDs(p.pairTree); ok {
		for _, rid := range rids {
			if !p.right.isDead(int(rid)) && p.pairTree.row(0, int(rid), true) {
				stitch(int(rid))
			}
		}
	} else {
		(&blockScan{t: p.right, tree: p.pairTree, maxBlock: -1}).zonePrepass().drain().ForEach(stitch)
	}
	if p.left.nDead > 0 { // partner lists may keep tombstoned left rows
		hit.AndNotWith(p.left.dead)
	}
	return hit
}

// next evaluates blocks from..maxBlock and returns the first whose selection
// is non-empty, left in dst; ok=false when the scan is exhausted.
func (s *blockScan) next(from int, dst *bitset.Block) (int, bool) {
	for b := from; b <= s.maxBlock; b++ {
		if s.cand == nil {
			if s.possible[b] && s.scanBlock(b, dst) {
				return b, true
			}
			continue
		}
		nxt, ok := s.cand.NextSet(b * blockSize)
		if !ok {
			break
		}
		b = nxt / blockSize
		s.cand.ReadBlock(b*blockSize, dst)
		if s.tree != nil {
			s.tree.block(s.t, b, &s.tmp, &s.be)
			dst.And(&s.tmp)
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
func (s *blockScan) scanBlock(b int, dst *bitset.Block) bool {
	t, base := s.t, b*blockSize
	if s.tree == nil {
		dst.Reset(base)
		dst.SetRange(base, min(base+blockSize, t.n))
	} else {
		s.tree.block(t, b, dst, &s.be)
		if !dst.Any() {
			return false
		}
	}
	if s.join != nil {
		s.join.ReadBlock(base, &s.tmp)
		dst.And(&s.tmp)
	}
	if t.nDead > 0 {
		t.dead.ReadBlock(base, &s.tmp)
		dst.AndNot(&s.tmp)
	}
	return dst.Any()
}

// drain materializes the scan: every non-empty block ORed whole into one
// compressed set. A candidate scan with no tree is its candidate set.
func (s *blockScan) drain() *bitset.Set {
	if s.cand != nil && s.tree == nil {
		return s.cand
	}
	b := bitset.NewBuilder(s.t.n)
	var blk bitset.Block
	for bi, ok := s.next(0, &blk); ok; bi, ok = s.next(bi+1, &blk) {
		b.AppendBlock(&blk)
	}
	return b.Finish()
}

// blockEval is a run's scratch for inner nodes: spare Blocks.
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

// blockRange is block bi's row range in t.
func blockRange(t *Table, bi int) (lo, hi int) {
	lo = bi * blockSize
	return lo, min(lo+blockSize, t.n)
}

// block takes the zone verdict, then bulk-accepts or runs the kernel.
func (l *leaf) block(t *Table, bi int, dst *bitset.Block, _ *blockEval) {
	lo, hi := blockRange(t, bi)
	dst.Reset(lo)
	c := l.t.cols[l.pos]
	z := &c.zones[bi]
	switch l.kind.verdict(z) {
	case zoneAll:
		dst.SetRange(lo, hi)
	case zoneMaybe:
		l.kind.kernel(c, z, lo, hi, dst)
	}
}

func (l *leaf) possible(bi int) bool {
	return l.kind.verdict(&l.t.cols[l.pos].zones[bi]) != zoneNone
}

func (n constNode) block(t *Table, bi int, dst *bitset.Block, _ *blockEval) {
	lo, hi := blockRange(t, bi)
	dst.Reset(lo)
	if n {
		dst.SetRange(lo, hi)
	}
}

func (n constNode) possible(int) bool { return bool(n) }

func (n notNode) block(t *Table, bi int, dst *bitset.Block, be *blockEval) {
	n.kid.block(t, bi, dst, be)
	dst.Not(t.n)
}

// possible is true: a NOT can match rows its kid's zones exclude.
func (n notNode) possible(int) bool { return true }

func (n andNode) block(t *Table, bi int, dst *bitset.Block, be *blockEval) {
	if len(n) == 0 { // empty conjunction is TRUE
		constNode(true).block(t, bi, dst, be)
		return
	}
	n[0].block(t, bi, dst, be)
	tmp := be.get()
	for _, k := range n[1:] {
		if !dst.Any() {
			break
		}
		k.block(t, bi, tmp, be)
		dst.And(tmp)
	}
	be.put(tmp)
}

func (n andNode) possible(bi int) bool {
	for _, k := range n {
		if !k.possible(bi) {
			return false
		}
	}
	return true
}

func (n orNode) block(t *Table, bi int, dst *bitset.Block, be *blockEval) {
	constNode(false).block(t, bi, dst, be)
	tmp := be.get()
	for _, k := range n {
		k.block(t, bi, tmp, be)
		dst.Or(tmp)
	}
	be.put(tmp)
}

func (n orNode) possible(bi int) bool {
	for _, k := range n {
		if k.possible(bi) {
			return true
		}
	}
	return false
}

// zoneVerdict is what one block's zone entry proves about one leaf.
type zoneVerdict uint8

const (
	zoneMaybe zoneVerdict = iota // the rows must be read
	zoneNone                     // no row of the block can match
	zoneAll                      // every row of the block matches
)

// The verdicts may over-approximate with zoneMaybe (the kernel re-checks);
// zoneNone on a block holding a matching row would be a wrong answer. A
// NULL literal and mixed-class BETWEEN bounds match nothing. A NaN row
// "equals" every number, so a block holding one is never pruned or
// bulk-accepted on a numeric literal.

func (k *cmpLeaf) verdict(z *zone) zoneVerdict {
	lit := k.lit
	switch {
	case lit.isNum:
		switch {
		case !z.hasNum || (!z.hasNaN && zoneSkipCmp(z, k.op, lit.f)):
			return zoneNone
		case z.pureNum() && zoneFullCmp(z, k.op, lit.f):
			return zoneAll
		}
		return zoneMaybe
	case lit.isStr && z.hasStr:
		return zoneMaybe
	}
	return zoneNone
}

func (k *betweenLeaf) verdict(z *zone) zoneVerdict {
	lo, hi := k.lo, k.hi
	switch {
	case lo.isNum && hi.isNum:
		switch {
		case !z.hasNum || (!z.hasNaN && (z.max < lo.f || z.min > hi.f)):
			return zoneNone
		case z.pureNum() && z.min >= lo.f && z.max <= hi.f:
			return zoneAll
		}
		return zoneMaybe
	case lo.isStr && hi.isStr && z.hasStr:
		return zoneMaybe
	}
	return zoneNone
}

func (k *inLeaf) verdict(z *zone) zoneVerdict {
	for _, lv := range k.lits {
		if (lv.isStr && z.hasStr) || (lv.isNum && z.hasNum &&
			(z.hasNaN || lv.f != lv.f || (lv.f >= z.min && lv.f <= z.max))) {
			return zoneMaybe
		}
	}
	return zoneNone
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

// rowLoop is the generic kernel: the leaf's row match over rows [lo, hi).
func rowLoop(k leafKind, c *column, lo, hi int, dst *bitset.Block) {
	for r := lo; r < hi; r++ {
		if k.match(c, r) {
			dst.Set(r)
		}
	}
}

// kernel runs the tight typed loops a pure-int block and string equality
// allow, and the row match otherwise. String equality compares dictionary
// codes — the literal's code is read here, at run time, so a string first
// inserted after compilation still matches, and one absent from the
// dictionary matches nothing — or raw strings once the column has left the
// dictionary.
func (k *cmpLeaf) kernel(c *column, z *zone, lo, hi int, dst *bitset.Block) {
	lit := k.lit
	switch {
	case lit.isNum && z.pureInt():
		for i, u := range c.nums[lo:hi] {
			if opMatch(cmp3f(float64(int64(u)), lit.f), k.op) {
				dst.Set(lo + i)
			}
		}
	case lit.isStr && k.op == predicate.OpEq && !c.rawMode:
		code, ok := c.dict.code(lit.s)
		if !ok {
			return
		}
		for r, cd := range c.codes[lo:hi] {
			if cd == code && c.kinds[lo+r] == predicate.KindString {
				dst.Set(lo + r)
			}
		}
	case lit.isStr && k.op == predicate.OpEq:
		for r, s := range c.rawStrs[lo:hi] {
			if s == lit.s && c.kinds[lo+r] == predicate.KindString {
				dst.Set(lo + r)
			}
		}
	default:
		rowLoop(k, c, lo, hi, dst)
	}
}

func (k *betweenLeaf) kernel(c *column, z *zone, lo, hi int, dst *bitset.Block) {
	if !k.lo.isNum || !z.pureInt() {
		rowLoop(k, c, lo, hi, dst)
		return
	}
	for i, u := range c.nums[lo:hi] {
		if v := float64(int64(u)); cmp3f(v, k.lo.f) >= 0 && cmp3f(v, k.hi.f) <= 0 {
			dst.Set(lo + i)
		}
	}
}

func (k *inLeaf) kernel(c *column, _ *zone, lo, hi int, dst *bitset.Block) {
	rowLoop(k, c, lo, hi, dst)
}

// candidateIDs inspects a right-side tree for equality leaves the right
// table's hash indexes can answer and, if it finds them, returns a superset
// of the matching right row ids (sorted, deduplicated); the caller still
// runs the tree per row, so over-approximation is safe and
// under-approximation is not. Which indexes exist and whether a column
// holds a NaN are read here, at run time.
func candidateIDs(n node) ([]int32, bool) {
	switch n := n.(type) {
	case *leaf:
		t, pos := n.t, n.pos
		switch k := n.kind.(type) {
		case *cmpLeaf:
			if k.op != predicate.OpEq || !indexUsable(t, pos, k.val) {
				return nil, false
			}
			return t.lookup(pos, k.val)
		case *inLeaf:
			if _, ok := t.indexFor(pos); !ok {
				return nil, false
			}
			var all []int32
			for _, v := range k.vals {
				if !indexUsable(t, pos, v) {
					return nil, false
				}
				ids, _ := t.lookup(pos, v)
				all = append(all, ids...)
			}
			return dedupeIDs(all), true
		}
	case andNode:
		// Any single conjunct's candidates are a valid superset of the AND.
		best := []int32(nil)
		found := false
		for _, k := range n {
			if ids, ok := candidateIDs(k); ok {
				if !found || len(ids) < len(best) {
					best, found = ids, true
				}
			}
		}
		return best, found
	case orNode:
		// All disjuncts must be index-usable for the union to be a superset.
		var all []int32
		for _, k := range n {
			ids, ok := candidateIDs(k)
			if !ok {
				return nil, false
			}
			all = append(all, ids...)
		}
		return dedupeIDs(all), true
	}
	return nil, false
}
