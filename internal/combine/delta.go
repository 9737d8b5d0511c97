package combine

import (
	"strings"
	"sync"
	"sync/atomic"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// This file is the evaluator half of incremental cache maintenance: given
// the set of base-table rows a mutation batch touched, every cached
// predicate bitmap is repaired by re-evaluating exactly those rows through
// relstore.MatchLeftRowSet (the compiled per-row filter at the touched rows),
// instead of rematerializing the predicate with a full scan.
// The delta subsystem in internal/delta drives it from the tables' change
// logs.

// RefreshRowSetDelta re-evaluates every cached predicate over exactly the
// touched base-table rows (a compressed row mask — the delta maintainer
// accumulates them that way directly) and patches the cached bitmaps
// copy-on-write (previously handed-out bitmaps stay consistent, the cache
// swaps to the patched clone). It returns the predicates whose tuple sets
// actually changed.
//
// ok=false means the evaluator cannot refresh incrementally (its scan
// plumbing fell back to pid collection at seed time); the caller must
// Invalidate and rematerialize.
//
// The patch is exact when the key attribute is unique per base-table row
// (dblp.pid is the table key): each touched row then owns its dense bit.
// With duplicate keys, a bit shared with an untouched row could be cleared
// spuriously; the delta subsystem documents the uniqueness requirement.
func (ev *Evaluator) RefreshRowSetDelta(touched *bitset.Set) (changed []string, ok bool, err error) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if len(ev.bits) == 0 {
		return nil, true, nil // nothing cached, nothing stale
	}
	if !ev.seeded || ev.rowDense == nil {
		return nil, false, nil
	}
	tbl := ev.db.Table(ev.seedFrom)
	if tbl == nil {
		return nil, false, nil
	}
	// Extend the row plumbing over rows inserted since the seed (or the
	// last refresh): dense ids stay unassigned until a predicate matches.
	if n := tbl.Len(); n > len(ev.rowDense) {
		keyCol := ev.KeyColumn(ev.seedFrom)
		for lid := len(ev.rowDense); lid < n; lid++ {
			ev.rowDense = append(ev.rowDense, -1)
			ev.pidByRow = append(ev.pidByRow, tbl.Value(lid, keyCol).AsInt())
		}
	}
	if m, has := touched.Max(); has && m >= len(ev.rowDense) {
		touched = touched.Clone()
		touched.Retain(func(lid int) bool { return lid < len(ev.rowDense) })
	}
	nTouched := touched.Len()
	if nTouched == 0 {
		return nil, true, nil
	}

	// Share the join-existence test across predicates: one probe pass
	// computes the touched rows that are live and have a live join partner,
	// and every predicate that reads only base-table columns then
	// re-evaluates joinless against that pre-filtered mask — the join
	// would only have re-asserted existence. Join-side predicates keep the
	// full query.
	baseQ := ev.base(predicate.True{})
	partnered := touched
	if baseQ.Join != nil {
		var err error
		partnered, err = ev.db.MatchLeftRowSet(baseQ, touched)
		if err != nil {
			return nil, false, err
		}
	}
	joinless := relstore.Query{From: baseQ.From}

	// Parallel phase: one touched-row re-evaluation per cached
	// predicate, fanned over a worker pool exactly like MaterializeAll —
	// the workers only read the store and fields frozen under ev.mu.
	predKeys := make([]string, 0, len(ev.bits))
	for pred := range ev.bits {
		if _, okp := ev.preds[pred]; !okp {
			return nil, false, nil
		}
		predKeys = append(predKeys, pred)
	}
	sels := make([]*bitset.Set, len(predKeys))
	errs := make([]error, len(predKeys))
	scanOne := func(i int) {
		sp := ev.preds[predKeys[i]]
		q := ev.base(sp.P)
		mask := touched
		if q.Join != nil && ev.bindsOnlyBase(sp.P, q) {
			q = joinless
			q.Where = sp.P
			mask = partnered
		}
		sels[i], errs[i] = ev.db.MatchLeftRowSet(q, mask)
	}
	// Small refreshes run serially: each touched-row re-match is a few
	// microseconds, so goroutine wake latency would dominate the pool.
	const parallelRefreshMin = 32
	if len(predKeys) < parallelRefreshMin {
		for i := range predKeys {
			scanOne(i)
		}
	} else {
		workers := ev.workerCount(len(predKeys))
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(predKeys) {
						return
					}
					scanOne(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, false, err
		}
	}

	// Serial patch phase: compare each predicate's re-evaluated rows with
	// its cached bitmap, cloning on first difference.
	for i, pred := range predKeys {
		bm := ev.bits[pred]
		sel := sels[i]
		// Desired membership per dense id: OR over the touched rows mapping
		// to it, so a delete+reinsert of the same pid within one batch
		// cannot clear a bit its replacement row still owns.
		desired := make(map[int32]bool, nTouched)
		order := make([]int32, 0, nTouched)
		touched.ForEach(func(lid int) bool {
			want := sel.Contains(lid)
			di := ev.rowDense[lid]
			if di < 0 {
				if !want {
					return true
				}
				di = int32(ev.dict.Add(ev.pidByRow[lid]))
				ev.rowDense[lid] = di
			}
			if _, seen := desired[di]; !seen {
				order = append(order, di)
			}
			desired[di] = desired[di] || want
			return true
		})
		var patched *Bitmap
		for _, di := range order {
			want := desired[di]
			cur := bm.Contains(int(di))
			if patched != nil {
				cur = patched.Contains(int(di))
			}
			if cur == want {
				continue
			}
			if patched == nil {
				patched = bm.Clone()
			}
			if want {
				patched.Set(int(di))
			} else {
				patched.Clear(int(di))
			}
		}
		if patched != nil {
			ev.bits[pred] = patched
			delete(ev.sets, pred) // the sorted view is stale; re-derive lazily
			changed = append(changed, pred)
		}
	}
	return changed, true, nil
}

// Invalidate drops every cached predicate set and the scan plumbing, so the
// next materialization rebuilds from the store's current state. The pid
// dictionary is retained: dense ids are stable across rebuilds, which keeps
// previously handed-out bitmaps and trackers dimensionally compatible.
func (ev *Evaluator) Invalidate() {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	ev.sets = make(map[string]IntSet)
	ev.bits = make(map[string]*Bitmap)
	ev.preds = make(map[string]hypre.ScoredPred)
	ev.seeded = false
	ev.rowDense, ev.pidByRow = nil, nil
	ev.seedFrom = ""
}

// bindsOnlyBase reports whether every attribute of p resolves to the base
// (left) table under the store's binding rules — qualified names bind to
// the named table, bare names bind left-first — so the predicate's delta
// re-evaluation can drop the join and rely on the shared partner mask.
// Attributes that resolve to no table are constant-false under either query
// shape, so they don't block the rewrite.
func (ev *Evaluator) bindsOnlyBase(p predicate.Predicate, q relstore.Query) bool {
	left := ev.db.Table(q.From)
	if left == nil {
		return false
	}
	var right *relstore.Table
	if q.Join != nil {
		right = ev.db.Table(q.Join.Table)
	}
	for _, a := range p.Attributes(nil) {
		if i := strings.LastIndexByte(a, '.'); i >= 0 {
			tbl, col := a[:i], a[i+1:]
			if tbl == q.From {
				continue // binds left (or nowhere): joinless-safe
			}
			if right != nil && tbl == q.Join.Table && right.ColumnIndex(col) >= 0 {
				return false
			}
			continue
		}
		if left.ColumnIndex(a) >= 0 {
			continue
		}
		if right != nil && right.ColumnIndex(a) >= 0 {
			return false
		}
	}
	return true
}

// KeyColumn resolves the key attribute to a bare column name of the given
// base table (qualified names strip their matching table prefix, mirroring
// how the row scan binds the attribute). The delta maintainer uses it to
// locate the key column whose rewrite forces a full rebuild.
func (ev *Evaluator) KeyColumn(table string) string {
	attr := ev.keyAttr
	if i := strings.LastIndexByte(attr, '.'); i >= 0 && attr[:i] == table {
		return attr[i+1:]
	}
	return attr
}
