package relstore

import (
	"fmt"

	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// Plan is a Query compiled once: its tables and join columns resolved,
// every attribute bound to a (side, column position) slot, the WHERE split
// by join side and every literal analyzed, lowered to one tree of compiled
// nodes. Each node has a row method — one (lid, rid, hasRight) probe — and
// a block method (vecscan.go) — zone verdict, then kernel, composed
// word-parallel.
//
// A plan holds nothing a commit or a compaction replaces: no column, no
// dictionary code or storage mode, no index, join entry, zone verdict or
// row id. A run reads those under the tables' state locks, so one plan
// answers every later state of the store. A plan is immutable once
// compiled; a run keeps its scratch to itself, so concurrent runs share
// one plan.
type Plan struct {
	left, right       *Table // right is nil for a joinless query
	leftPos, rightPos int    // the join columns
	limit             int
	// rowTree holds the conjuncts that read the left table alone (nil:
	// none, or TRUE). pairTree holds the right-side conjuncts, or the whole
	// WHERE when some conjunct reads both sides (nil: none).
	rowTree, pairTree node
	// block reports that the block path can run the plan: every conjunct
	// reads one side, and the compiler knows every node.
	block bool
}

// Compile compiles q against db's schemas. It takes no state lock: a plan
// binds names, which no commit changes.
func (db *DB) Compile(q Query) (*Plan, error) {
	p := &Plan{limit: q.Limit}
	if p.left = db.Table(q.From); p.left == nil {
		return nil, fmt.Errorf("relstore: unknown table %q", q.From)
	}
	if q.Join != nil {
		if p.right = db.Table(q.Join.Table); p.right == nil {
			return nil, fmt.Errorf("relstore: unknown join table %q", q.Join.Table)
		}
		if p.leftPos = p.left.ColumnIndex(q.Join.LeftCol); p.leftPos < 0 {
			return nil, fmt.Errorf("relstore: %s has no column %q", q.From, q.Join.LeftCol)
		}
		if p.rightPos = p.right.ColumnIndex(q.Join.RightCol); p.rightPos < 0 {
			return nil, fmt.Errorf("relstore: %s has no column %q", q.Join.Table, q.Join.RightCol)
		}
	}
	where := q.Where
	if where == nil {
		where = predicate.True{}
	}
	// Split the conjunction by join side: a conjunct reading one table runs
	// against that table alone (attribute-free conjuncts count as left).
	c := compiler{left: p.left, right: p.right}
	var all, lefts, rights []node
	split := true
	for _, conj := range flattenAnd(where) {
		n, sides := c.compile(conj)
		all = append(all, n)
		switch sides {
		case sideLeft | sideRight:
			split = false
		case sideRight:
			rights = append(rights, n)
		default:
			lefts = append(lefts, n)
		}
	}
	if split {
		p.rowTree, p.pairTree = andOf(lefts), andOf(rights)
	} else {
		p.pairTree = andOf(all)
	}
	if t, ok := p.rowTree.(constNode); ok && bool(t) {
		p.rowTree = nil
	}
	p.block = split && !c.opaque
	return p, nil
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

// andOf is the conjunction of ns: nil for none, the node itself for one.
func andOf(ns []node) node {
	switch len(ns) {
	case 0:
		return nil
	case 1:
		return ns[0]
	}
	return andNode(ns)
}

// attrSide tags which table a bound attribute lives in; as a mask, the
// sides a subtree reads.
type attrSide uint8

const (
	sideNone  attrSide = 0
	sideLeft  attrSide = 1
	sideRight attrSide = 2
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

// compiler lowers predicate trees against one (left, right) table pair.
type compiler struct {
	left, right *Table
	opaque      bool // some node is one only predicate.Eval can run
}

// compile lowers p to a node and reports the sides its attributes bind to.
// A comparison on an attribute that binds to neither side is constant
// false, as Eval's collapsed three-valued logic has it.
func (c *compiler) compile(p predicate.Predicate) (node, attrSide) {
	switch n := p.(type) {
	case predicate.True:
		return constNode(true), sideNone
	case *predicate.Cmp:
		return c.leaf(n.Attr, &cmpLeaf{op: n.Op, val: n.Val, lit: analyzeLit(n.Val)})
	case *predicate.Between:
		return c.leaf(n.Attr, &betweenLeaf{lo: analyzeLit(n.Lo), hi: analyzeLit(n.Hi)})
	case *predicate.In:
		k := &inLeaf{vals: n.Vals, lits: make([]litVal, len(n.Vals))}
		for i, v := range n.Vals {
			k.lits[i] = analyzeLit(v)
		}
		return c.leaf(n.Attr, k)
	case *predicate.Not:
		kid, sides := c.compile(n.Kid)
		return notNode{kid}, sides
	case *predicate.And:
		kids, sides := c.compileKids(n.Kids)
		return andNode(kids), sides
	case *predicate.Or:
		kids, sides := c.compileKids(n.Kids)
		return orNode(kids), sides
	}
	c.opaque = true
	var sides attrSide
	for _, a := range p.Attributes(nil) {
		side, _ := bindAttr(a, c.left, c.right)
		sides |= side
	}
	return &opaqueNode{p: p, left: c.left, right: c.right}, sides
}

func (c *compiler) compileKids(ps []predicate.Predicate) ([]node, attrSide) {
	out := make([]node, len(ps))
	var sides attrSide
	for i, p := range ps {
		var s attrSide
		out[i], s = c.compile(p)
		sides |= s
	}
	return out, sides
}

func (c *compiler) leaf(attr string, k leafKind) (node, attrSide) {
	switch side, pos := bindAttr(attr, c.left, c.right); side {
	case sideLeft:
		return &leaf{t: c.left, side: side, pos: pos, kind: k}, side
	case sideRight:
		return &leaf{t: c.right, side: side, pos: pos, kind: k}, side
	}
	return constNode(false), sideNone
}

// node is one compiled predicate node.
type node interface {
	// row reports whether the pair of left row lid and right row rid
	// matches; hasRight is false for an unjoined row, which fails every
	// right-side leaf.
	row(lid, rid int, hasRight bool) bool
	// possible is the zone prepass: can any row of block bi match?
	possible(bi int) bool
	// block evaluates the node over block bi of t into dst. Every leaf of
	// a tree the block path runs binds to t, the table of the tree's side.
	block(t *Table, bi int, dst *bitset.Block, be *blockEval)
}

// leaf is a comparison of one bound column: its kind (Cmp, Between, In)
// holds the analyzed literals and defines the row match.
type leaf struct {
	t    *Table
	side attrSide
	pos  int
	kind leafKind
}

// leafKind is what one comparison kind defines once: its row match, what a
// block's zone entry proves about it, and its block kernel, whose generic
// row loop is the row match.
type leafKind interface {
	match(c *column, r int) bool
	verdict(z *zone) zoneVerdict
	kernel(c *column, z *zone, lo, hi int, dst *bitset.Block)
}

func (l *leaf) row(lid, rid int, hasRight bool) bool {
	r := lid
	if l.side == sideRight {
		if !hasRight {
			return false
		}
		r = rid
	}
	return l.kind.match(l.t.cols[l.pos], r)
}

// cmpLeaf is Attr Op Literal.
type cmpLeaf struct {
	op  predicate.Op
	val predicate.Value // the literal as written: index lookups key on it
	lit litVal
}

func (k *cmpLeaf) match(c *column, r int) bool {
	c3, ok := c.cmp3At(r, k.lit)
	return ok && opMatch(c3, k.op)
}

// betweenLeaf is Attr BETWEEN Lo AND Hi: a row matches when it is
// comparable with both bounds and lies inside.
type betweenLeaf struct{ lo, hi litVal }

func (k *betweenLeaf) match(c *column, r int) bool {
	cl, ok1 := c.cmp3At(r, k.lo)
	ch, ok2 := c.cmp3At(r, k.hi)
	return ok1 && ok2 && cl >= 0 && ch <= 0
}

// inLeaf is Attr IN (v1, ...): a row matches when it equals a member.
type inLeaf struct {
	vals []predicate.Value // as written: index lookups key on them
	lits []litVal
}

func (k *inLeaf) match(c *column, r int) bool {
	for _, lv := range k.lits {
		if c3, ok := c.cmp3At(r, lv); ok && c3 == 0 {
			return true
		}
	}
	return false
}

// constNode is TRUE, or a comparison that can never hold.
type constNode bool

func (n constNode) row(int, int, bool) bool { return bool(n) }

type notNode struct{ kid node }

func (n notNode) row(lid, rid int, hasRight bool) bool { return !n.kid.row(lid, rid, hasRight) }

type andNode []node

func (n andNode) row(lid, rid int, hasRight bool) bool {
	for _, k := range n {
		if !k.row(lid, rid, hasRight) {
			return false
		}
	}
	return true
}

type orNode []node

func (n orNode) row(lid, rid int, hasRight bool) bool {
	for _, k := range n {
		if k.row(lid, rid, hasRight) {
			return true
		}
	}
	return false
}

// opaqueNode is a node type the compiler does not know: each row is boxed
// and handed to its Eval. A plan holding one never runs the block path.
type opaqueNode struct {
	p           predicate.Predicate
	left, right *Table
}

func (n *opaqueNode) row(lid, rid int, hasRight bool) bool {
	row := JoinedRow{Left: n.left.Row(lid)}
	if hasRight {
		row.Right = n.right.Row(rid)
		row.HasRight = true
	}
	return n.p.Eval(row)
}

func (n *opaqueNode) possible(int) bool { return true }

func (n *opaqueNode) block(*Table, int, *bitset.Block, *blockEval) {
	panic("relstore: a block scan reached a node only Eval can run")
}
