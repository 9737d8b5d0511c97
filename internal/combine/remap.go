package combine

import (
	"slices"

	"hypre/internal/relstore"
)

// This file absorbs tombstone compaction into the evaluator's caches. A
// relstore compaction breaks exactly one assumption the delta machinery
// leans on — that row ids are stable forever — so the maintainer applies
// the published remap in two touched-work steps before its normal refresh:
// RemapRows reindexes the row→dense/pid plumbing through the remap, and
// DropPids copy-on-write-clears the dense bits of pids whose rows were
// dropped (their pre-images arrive as Row = -1 change-log entries). Dense
// ids themselves are dictionary-assigned and never move, which is what
// keeps the predicate bitmaps and the pair table dimensionally stable
// across any number of compactions.

// RemapRows reindexes the evaluator's row-id plumbing through one
// compaction remap (remap[old] = new id, -1 = dropped). Rows the plumbing
// had not yet seen (inserted after the last refresh) get a fresh slot with
// their pid read from the compacted store. ok=false means the evaluator has
// no incremental plumbing and the caller must rebuild.
func (ev *Evaluator) RemapRows(remap []int32) (ok bool) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if len(ev.bits) == 0 && !ev.seeded {
		return true // nothing cached, nothing keyed by row id
	}
	if !ev.seeded || ev.rowDense == nil {
		return false
	}
	tbl := ev.db.Table(ev.seedFrom)
	if tbl == nil {
		return false
	}
	live := 0
	for _, nw := range remap {
		if nw >= 0 {
			live++
		}
	}
	keyCol := ev.KeyColumn(ev.seedFrom)
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
	ev.rowDense, ev.pidByRow = nd, np
	return true
}

// DropPids clears the given pids from every cached predicate bitmap — the
// membership removal for rows a compaction dropped, whose ids the normal
// row-driven refresh can no longer reach. Bitmaps are patched copy-on-write
// exactly like RefreshRowSetDelta, and the return values have the same
// shape so the caller can merge them into one pair-table recount: changed
// predicates, their pre-patch bitmaps, and the dense ids where bits moved.
// Call it *before* the row-driven refresh: a pid re-inserted under a
// surviving row is then restored by the refresh, which evaluates current
// store state.
func (ev *Evaluator) DropPids(pids []int64) (changed []string, prev map[string]*Bitmap, ids []int32, ok bool) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if len(ev.bits) == 0 {
		return nil, nil, nil, true
	}
	if !ev.seeded {
		return nil, nil, nil, false
	}
	dis := make([]int, 0, len(pids))
	for _, pid := range pids {
		if di, found := ev.dict.Find(pid); found {
			dis = append(dis, di)
		}
	}
	if len(dis) == 0 {
		return nil, nil, nil, true
	}
	idSeen := map[int32]struct{}{}
	for pred, bm := range ev.bits {
		var patched *Bitmap
		for _, di := range dis {
			cur := bm.Contains(di)
			if patched != nil {
				cur = patched.Contains(di)
			}
			if !cur {
				continue
			}
			if patched == nil {
				patched = bm.Clone()
			}
			patched.Clear(di)
			idSeen[int32(di)] = struct{}{}
		}
		if patched != nil {
			if prev == nil {
				prev = make(map[string]*Bitmap)
			}
			prev[pred] = bm
			ev.bits[pred] = patched
			delete(ev.sets, pred)
			changed = append(changed, pred)
		}
	}
	ids = make([]int32, 0, len(idSeen))
	for di := range idSeen {
		ids = append(ids, di)
	}
	slices.Sort(ids)
	return changed, prev, ids, true
}

// RowPids maps base-table row ids to their pids through the evaluator's row
// plumbing (rows outside it — inserted after the last refresh — are read
// from the store), deduplicated, for consumers keyed by pid rather than row
// (the TA-list delta path).
func (ev *Evaluator) RowPids(rows []int) []int64 {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	var tbl *relstore.Table
	out := make([]int64, 0, len(rows))
	seen := make(map[int64]struct{}, len(rows))
	keyCol := ""
	for _, lid := range rows {
		if lid < 0 {
			continue
		}
		var pid int64
		if ev.rowDense != nil && lid < len(ev.pidByRow) {
			pid = ev.pidByRow[lid]
		} else {
			if tbl == nil {
				tbl = ev.db.Table(ev.seedFrom)
				if tbl == nil {
					continue
				}
				keyCol = ev.KeyColumn(ev.seedFrom)
			}
			pid = tbl.Value(lid, keyCol).AsInt()
		}
		if _, dup := seen[pid]; dup {
			continue
		}
		seen[pid] = struct{}{}
		out = append(out, pid)
	}
	return out
}

// DenseID returns the dense dictionary index of pid, ok=false when the pid
// was never materialized into any bitmap.
func (ev *Evaluator) DenseID(pid int64) (int, bool) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	return ev.dict.Find(pid)
}
