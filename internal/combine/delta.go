package combine

import (
	"cmp"
	"slices"
	"strings"

	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// This file is the evaluator half of incremental maintenance: given the
// base-table rows a mutation batch touched and the pids a compaction
// dropped, every resident predicate bitmap is repaired by re-evaluating
// exactly those rows through its plan's MatchLeftRowSet (the store's row
// selection restricted to the touched rows), instead of rematerializing the
// predicate with a full scan. The delta subsystem in internal/delta drives
// it from the tables' change logs.

// RowDelta is what one refresh learned, in the terms the result cache's
// repair reads.
type RowDelta struct {
	// Moved holds the ids of the predicates whose tuple set changed,
	// ascending.
	Moved []int32
	// PIDs is T: the sorted pids of every touched row, tombstoned or not,
	// and of every row a compaction dropped.
	PIDs []int64
	// Rows are the live touched rows some resident predicate now matches,
	// ascending by pid.
	Rows []MatchedRow
}

// MatchedRow is one live touched row: its pid and the ids of the resident
// predicates matching it, ascending.
type MatchedRow struct {
	PID int64
	IDs []int32
}

// RefreshRowSetDelta re-evaluates every resident predicate over exactly
// the touched base-table rows (a compressed row mask — the delta maintainer
// accumulates them that way directly) and clears the pids a compaction
// dropped (their rows no longer exist to re-evaluate). touched must include
// every live row still holding a dropped pid, whose membership is then
// restored from that row. Bitmaps are patched copy-on-write: previously
// handed-out bitmaps stay consistent and the store swaps to the patched
// clone, and the patched bitmaps are published as one new version. The
// returned delta is nil when no predicate is resident. It holds refresh
// exclusively, so it waits out any materialization in flight, and readers
// never wait for it. A resident predicate implies a seeded row plumbing,
// so every refresh is incremental.
//
// The patch is exact when the key attribute is unique per live base-table
// row (dblp.pid is the table key): the desired membership of a pid is the
// OR over its touched rows, so a delete+reinsert of the same pid within one
// batch cannot clear a bit its replacement row still owns.
func (ev *Evaluator) RefreshRowSetDelta(touched *bitset.Set, dropped []int64) (*RowDelta, error) {
	ev.refresh.Lock()
	defer ev.refresh.Unlock()
	v := ev.cur.Load()
	if !v.anyResident() {
		return nil, nil // nothing resident, nothing stale
	}
	// Extend the row plumbing over rows inserted since the seed (or the
	// last refresh): dense ids stay unassigned until a predicate matches.
	tbl := ev.db.Table(ev.from)
	if n := tbl.Len(); n > len(ev.rowDense) {
		keyCol := ev.KeyColumn(ev.from)
		for lid := len(ev.rowDense); lid < n; lid++ {
			ev.rowDense = append(ev.rowDense, -1)
			ev.pidByRow = append(ev.pidByRow, tbl.Value(lid, keyCol).AsInt())
		}
	}
	if m, has := touched.Max(); has && m >= len(ev.rowDense) {
		touched = touched.Clone()
		touched.Retain(func(lid int) bool { return lid < len(ev.rowDense) })
	}

	// One group per distinct pid the batch reaches, ascending by pid: its
	// touched rows (none for a pid whose only row a compaction dropped), its
	// dictionary slot (-1 while it has none) and the resident predicates
	// that now match it. The slots already assigned form the batch's
	// footprint in every bitmap.
	type pidRow struct {
		pid int64
		row int
	}
	type pidRows struct {
		pid  int64
		di   int
		rows []int
		ids  []int32
	}
	var pairs []pidRow
	touched.ForEach(func(lid int) bool {
		pairs = append(pairs, pidRow{ev.pidByRow[lid], lid})
		return true
	})
	for _, pid := range dropped {
		pairs = append(pairs, pidRow{pid, -1})
	}
	if len(pairs) == 0 {
		return &RowDelta{}, nil
	}
	slices.SortFunc(pairs, func(a, b pidRow) int { return cmp.Compare(a.pid, b.pid) })
	var groups []pidRows
	foot := bitset.New()
	for _, pr := range pairs {
		if n := len(groups); n == 0 || groups[n-1].pid != pr.pid {
			di, found := ev.dict.Find(pr.pid)
			if !found {
				di = -1
			} else {
				foot.Add(di)
			}
			groups = append(groups, pidRows{pid: pr.pid, di: di})
		}
		if pr.row >= 0 {
			g := &groups[len(groups)-1]
			g.rows = append(g.rows, pr.row)
		}
	}

	// Share the join-existence test across predicates: one probe pass
	// computes the touched rows that are live and have a live join partner,
	// and every joined plan re-matches over that pre-filtered mask; one
	// whose WHERE reads only base-table columns skips the partner probe —
	// the join would only have re-asserted existence.
	var partnered *bitset.Set
	if baseQ := ev.base(predicate.True{}); baseQ.Join != nil {
		partners, err := ev.db.Compile(baseQ)
		if err != nil {
			return nil, err
		}
		if partnered, err = partners.MatchLeftRowSet(touched, nil); err != nil {
			return nil, err
		}
	}

	// Parallel phase: one touched-row re-match per resident predicate, each
	// running the plan compiled when it was first materialized, fanned over
	// a worker pool exactly like MaterializeAll — the workers only read the
	// store and fields frozen under refresh.
	var resident []int32
	for id, b := range v.bits {
		if b != nil {
			resident = append(resident, int32(id))
		}
	}
	sels := make([]*bitset.Set, len(resident))
	errs := make([]error, len(resident))
	scanOne := func(i int) {
		sels[i], errs[i] = ev.plans[resident[i]].MatchLeftRowSet(touched, partnered)
	}
	// Small refreshes run serially: each touched-row re-match is a few
	// microseconds, so goroutine wake latency would dominate the pool.
	const parallelRefreshMin = 32
	workers := 1
	if len(resident) >= parallelRefreshMin {
		workers = ev.workerTarget()
	}
	parallelFor(workers, len(resident), scanOne)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Serial patch phase, in id order: a pid's desired membership is the OR
	// over its touched rows; a bitmap is cloned on its first difference, and
	// the next version's bitmap slice on the first moved predicate.
	d := &RowDelta{}
	var bits []*bitset.Set
	for i, id := range resident {
		bm, sel := v.bits[id], sels[i]
		if sel.IsEmpty() && !bm.Intersects(foot) {
			continue // matched none of the batch before or after
		}
		var patched *bitset.Set
		for gi := range groups {
			g := &groups[gi]
			want := slices.ContainsFunc(g.rows, sel.Contains)
			if want {
				g.ids = append(g.ids, id)
			}
			if cur := g.di >= 0 && bm.Contains(g.di); cur == want {
				continue
			}
			if g.di < 0 {
				g.di = ev.dict.Add(g.pid)
			}
			if patched == nil {
				patched = bm.Clone()
			}
			if want {
				patched.Add(g.di)
			} else {
				patched.Remove(g.di)
			}
		}
		if patched != nil {
			if bits == nil {
				bits = slices.Clone(v.bits)
			}
			bits[id] = patched
			d.Moved = append(d.Moved, id)
		}
	}
	if bits != nil {
		ev.publishLocked(bits)
	}
	for _, g := range groups {
		d.PIDs = append(d.PIDs, g.pid)
		if len(g.ids) > 0 {
			d.Rows = append(d.Rows, MatchedRow{PID: g.pid, IDs: g.ids})
		}
	}
	return d, nil
}

// RemapRows reindexes the evaluator's row-id plumbing through one
// compaction remap (remap[old] = new id, -1 = dropped), so compaction is
// absorbed entirely here: bitmaps are keyed by dictionary slot, which a
// compaction never moves, and the pids of dropped rows leave them through
// the next RefreshRowSetDelta. Rows the plumbing had not yet seen (inserted
// after the last refresh) get a fresh slot with their pid read from the
// compacted store. epoch is the base-table epoch the remap brings the
// plumbing to: the caller read the compactions it composed as of then.
// An evaluator not yet seeded has no plumbing to remap, and nothing
// resident.
func (ev *Evaluator) RemapRows(remap []int32, epoch uint64) {
	ev.refresh.Lock()
	defer ev.refresh.Unlock()
	if ev.rowDense == nil {
		return
	}
	tbl := ev.db.Table(ev.from)
	live := 0
	for _, nw := range remap {
		if nw >= 0 {
			live++
		}
	}
	keyCol := ev.KeyColumn(ev.from)
	nd := make([]int32, live)
	np := make([]int64, live)
	for i := range nd {
		nd[i] = -1
	}
	for old, nw := range remap {
		if nw < 0 {
			continue
		}
		if old < len(ev.rowDense) {
			nd[nw] = ev.rowDense[old]
			np[nw] = ev.pidByRow[old]
		} else {
			// The plumbing never saw this row; read its key at the row's
			// post-compaction position.
			np[nw] = tbl.Value(int(nw), keyCol).AsInt()
		}
	}
	ev.rowDense, ev.pidByRow, ev.plumbEpoch = nd, np, epoch
}

// Invalidate publishes a version with no predicate resident and drops the
// scan plumbing, so the next materialization rebuilds from the store's
// current state. The pid dictionary and the predicate ids are retained:
// dense ids are stable across rebuilds, which keeps previously handed-out
// bitmaps and trackers dimensionally compatible, and an id keeps naming the
// same predicate.
func (ev *Evaluator) Invalidate() {
	ev.refresh.Lock()
	defer ev.refresh.Unlock()
	ev.publishLocked(nil)
	ev.rowDense, ev.pidByRow = nil, nil
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
