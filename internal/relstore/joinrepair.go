package relstore

import "hypre/internal/predicate"

// Incremental repair of the cached join plumbing. Instead of rebuilding the
// existence vector and right→left CSR O(n) every time an epoch moves, the
// repair drains both tables' change logs since the entry was built and
// recomputes only what those changes can have perturbed, against the
// *current* state (which makes each step idempotent and multi-change rows
// safe — intermediate keys are all visible as pre-images):
//
//   - every changed right row gets its partner list recomputed (overlay);
//   - every changed left row gets its existence bit recomputed;
//   - every left row whose join key matches a touched key (a changed right
//     row's pre-image or current key, via the left index) gets its
//     existence bit recomputed — right-side churn can flip it;
//   - every right row whose key matches a changed left row's pre-image or
//     current key gets its partner list recomputed — left-side churn can
//     grow or shrink it.
//
// Deletes need no CSR surgery: consumers filter tombstones downstream of
// the stitch and never consult a dead rid's list, so stale dead lids in
// untouched lists are harmless (fresh rebuilds still exclude them).
//
// The repair refuses — returning nil, which sends joinEntry to the loud
// O(n) rebuild — when a log was trimmed past the entry's build epoch, when
// either table compacted (row ids moved), when the change set or its key
// fan-out is a table-sized fraction, or when the accumulated overlay would
// exceed its bound (the rebuild resets it).

// joinRepairMaxChanges caps how many log entries a repair will walk; past
// this the O(n) rebuild is competitive anyway.
const joinRepairMaxChanges = 1 << 12

// repairJoinEntry patches e into a fresh entry at (lgen, rgen), or returns
// nil when a full rebuild is required. Callers hold both tables' state
// locks at least shared.
func (t *Table) repairJoinEntry(e *existsEntry, right *Table, leftPos, rightPos int, lgen, rgen uint64) *existsEntry {
	if lc, ok := t.compactionsSinceLocked(e.lgen); !ok || len(lc) > 0 {
		return nil
	}
	if rc, ok := right.compactionsSinceLocked(e.rgen); !ok || len(rc) > 0 {
		return nil
	}
	lch, ok := t.changedSinceLocked(e.lgen)
	if !ok {
		return nil
	}
	rch, ok := right.changedSinceLocked(e.rgen)
	if !ok {
		return nil
	}
	if len(lch)+len(rch) > joinRepairMaxChanges {
		return nil
	}

	lidx := t.ensureIndex(leftPos)
	ridx := right.ensureIndex(rightPos)
	lcol := t.cols[leftPos]
	rcol := right.cols[rightPos]

	// Touched sets: right rows needing a partner-list recompute, left rows
	// needing an existence recompute.
	ridSet := make(map[int]struct{}, len(rch))
	lidSet := make(map[int]struct{}, len(lch))
	addLeftOfKey := func(k predicate.Value) {
		for _, lid := range lidx.rows(k) {
			lidSet[int(lid)] = struct{}{}
		}
	}
	addRightOfKey := func(k predicate.Value) {
		for _, rid := range ridx.rows(k) {
			ridSet[int(rid)] = struct{}{}
		}
	}
	for _, ch := range rch {
		if ch.Row >= 0 {
			ridSet[ch.Row] = struct{}{}
		}
		if ch.Old != nil {
			addLeftOfKey(ch.Old[rightPos])
		}
		if ch.Row >= 0 && ch.Row < right.n && !right.isDead(ch.Row) {
			addLeftOfKey(rcol.value(ch.Row))
		}
	}
	for _, ch := range lch {
		if ch.Row >= 0 {
			lidSet[ch.Row] = struct{}{}
		}
		if ch.Old != nil {
			addRightOfKey(ch.Old[leftPos])
		}
		if ch.Row >= 0 && ch.Row < t.n && !t.isDead(ch.Row) {
			addRightOfKey(lcol.value(ch.Row))
		}
	}
	if len(ridSet)+len(lidSet) > joinRepairMaxChanges {
		return nil // hot-key fan-out: the touched set became table-sized
	}
	if len(e.patched)+len(ridSet) > patchedCap(right.n) {
		return nil // overlay would dominate the CSR; rebuild resets it
	}

	patched := make(map[int32][]int32, len(e.patched)+len(ridSet))
	for k, v := range e.patched {
		patched[k] = v
	}
	for rid := range ridSet {
		if rid >= right.n || right.isDead(rid) {
			patched[int32(rid)] = nil
			continue
		}
		var ps []int32
		for _, lid := range lidx.rows(rcol.value(rid)) {
			if !t.isDead(int(lid)) {
				ps = append(ps, lid)
			}
		}
		patched[int32(rid)] = ps
	}
	sel := e.sel.Clone()
	for lid := range lidSet {
		if lid >= t.n || t.isDead(lid) {
			sel.Remove(lid)
			continue
		}
		alive := false
		for _, rid := range ridx.rows(lcol.value(lid)) {
			if !right.isDead(int(rid)) {
				alive = true
				break
			}
		}
		if alive {
			sel.Add(lid)
		} else {
			sel.Remove(lid)
		}
	}
	return &existsEntry{sel: sel, off: e.off, lids: e.lids, patched: patched,
		lgen: lgen, rgen: rgen}
}

// patchedCap bounds the overlay relative to the table it shadows.
func patchedCap(n int) int {
	if c := n / 8; c > 1024 {
		return c
	}
	return 1024
}
