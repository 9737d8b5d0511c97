package relstore

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"hypre/internal/bitset"
)

// This file is the streaming face of the scan core (vecscan.go): a
// pull-based iterator over a scan plan that hands out one 1024-row block of
// matching rows per call, with their attr values. It admits join rows
// exactly as a materialized scan does, through the cached join entry, and a
// selection never round-trips through a fully materialized bitset.Set.
// Consumers that stop pulling early (the top-k threshold rule) never pay for
// the remaining blocks.

// The kernels address rows block-relative through bitset.Block, so the two
// packages must agree on the block width.
var _ [bitset.BlockBits - blockSize]struct{}
var _ [blockSize - bitset.BlockBits]struct{}

// ErrStreamUnsupported reports a query shape the streaming iterator cannot
// serve (mixed-side conjuncts or nodes the block evaluator doesn't know).
// Callers fall back to the materialized path.
var ErrStreamUnsupported = errors.New("relstore: query shape unsupported by streaming scan")

// AttrRowIter streams the rows ScanAttrRowSet would select, block by block,
// in ascending row order. Its group holds the tables' shared state locks from
// Open to Close, so one scan sees one consistent epoch; keep groups
// short-lived (they block writers).
type AttrRowIter struct {
	plan    *scanPlan
	attr    *column
	nBlocks int
	cur     int // next block to consider
	sel     bitset.Block
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

// planAttrRowIter validates the query shape and plans the scan (planScan).
// Callers hold the state locks of every involved table.
func (db *DB) planAttrRowIter(q Query, attr string) (*AttrRowIter, error) {
	left, right, leftPos, rightPos, attrPos, where, err := db.resolveAttrRowScan(q, attr)
	if err != nil {
		return nil, err
	}
	p, ok := planScan(left, right, leftPos, rightPos, where)
	if !ok {
		return nil, ErrStreamUnsupported
	}
	return &AttrRowIter{plan: p, attr: left.cols[attrPos],
		nBlocks: (left.n + blockSize - 1) / blockSize}, nil
}

// NumBlocks returns the number of blocks covering the scanned table.
func (it *AttrRowIter) NumBlocks() int { return it.nBlocks }

// ZoneSkipped returns how many blocks the zone-map prepass ruled out at
// plan time — blocks NextBlock will never evaluate. Candidate mode reports
// 0: its work is proportional to the answer, not to surviving blocks, so
// "skipped" has no block-count meaning there.
func (it *AttrRowIter) ZoneSkipped() int {
	n := 0
	for _, ok := range it.plan.possible {
		if !ok {
			n++
		}
	}
	return n
}

// MaxBlock returns the last block index that can still yield a row (-1 when
// the scan is provably empty) — the bound that lets a consumer retire this
// predicate from its stopping rule.
func (it *AttrRowIter) MaxBlock() int { return it.plan.maxBlock }

// NextBlock advances to the next block containing at least one matching row
// and returns its index plus the matching rows (ascending row ids with
// their attr values, rows with non-convertible attrs dropped exactly like
// ScanAttrRowSet). The returned slices are reused by the next call.
// ok=false means the scan is exhausted. A consumer that stops pulling
// leaves all later blocks unevaluated.
func (it *AttrRowIter) NextBlock() (bi int, lids []int32, vals []int64, ok bool) {
	for {
		b, more := it.plan.next(it.cur, &it.sel)
		if !more {
			return 0, nil, nil, false
		}
		it.cur = b + 1
		it.lids, it.vals = it.lids[:0], it.vals[:0]
		it.sel.ForEach(func(lid int) bool {
			if v, vok := it.attr.intAt(lid); vok {
				it.lids = append(it.lids, int32(lid))
				it.vals = append(it.vals, v)
			}
			return true
		})
		if len(it.lids) > 0 {
			return b, it.lids, it.vals, true
		}
	}
}
