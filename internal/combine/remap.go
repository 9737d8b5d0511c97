package combine

// This file absorbs tombstone compaction into the evaluator's caches. A
// relstore compaction breaks exactly one assumption the delta machinery
// leans on — that row ids are stable forever — so the maintainer applies
// the published remap in two touched-work steps before its normal refresh:
// RemapRows reindexes the row→dense/pid plumbing through the remap, and
// DropPids copy-on-write-clears the dense bits of pids whose rows were
// dropped (their pre-images arrive as Row = -1 change-log entries). Dense
// ids themselves are dictionary-assigned and never move, which is what
// keeps the predicate bitmaps dimensionally stable across any number of
// compactions.

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
// exactly like RefreshRowSetDelta, and it likewise returns the predicates
// whose tuple sets changed. Call it *before* the row-driven refresh: a pid
// re-inserted under a surviving row is then restored by the refresh, which
// evaluates current store state.
func (ev *Evaluator) DropPids(pids []int64) (changed []string, ok bool) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if len(ev.bits) == 0 {
		return nil, true
	}
	if !ev.seeded {
		return nil, false
	}
	dis := make([]int, 0, len(pids))
	for _, pid := range pids {
		if di, found := ev.dict.Find(pid); found {
			dis = append(dis, di)
		}
	}
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
		}
		if patched != nil {
			ev.bits[pred] = patched
			delete(ev.sets, pred)
			changed = append(changed, pred)
		}
	}
	return changed, true
}
