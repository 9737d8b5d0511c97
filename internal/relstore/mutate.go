package relstore

import (
	"fmt"

	"hypre/internal/predicate"
)

// This file is the write half of the online-mutation subsystem. Every
// mutation runs inside a commit (Batch.Commit, batch.go): one hold of the
// touched tables' exclusive state locks, whatever the number of mutations.
// Deletes are tombstones over the columnar vectors (row ids are stable
// until a compaction publishes a remap); updates overwrite in place, and
// the commit rebuilds each dirtied block's zone map exactly once before it
// unlocks. Hash-index repair is lazy for deletes (dead ids linger in
// buckets and are filtered at every consumption point; fresh builds skip
// them) and eager for updates (the old-key bucket drops the id, the
// new-key bucket gains it — an update must be findable under its new value
// immediately). Join-CSR repair is lazy: each commit bumps the epoch of
// every table it touches, and the cached existence vector + right→left CSR
// are repaired or rebuilt on next use when their build epoch is stale.
//
// Snapshot semantics: a scan holds the state lock of every table it touches
// (shared, acquired in creation order) for its full duration, so it
// observes exactly one epoch per table; a commit waits for in-flight
// readers and applies all its mutations, across tables, before any reader
// gets back in. Committed mutations are additionally journaled in a
// bounded change log with pre-images, which the delta-maintenance layer
// drains via SnapshotSince to repair derived caches incrementally instead
// of rematerializing.

// ChangeKind tags one committed mutation in a table's change log.
type ChangeKind uint8

const (
	// ChangeInsert is a row append; Old is nil.
	ChangeInsert ChangeKind = iota
	// ChangeUpdate is an in-place overwrite; Old is the full pre-image row.
	ChangeUpdate
	// ChangeDelete is a tombstone; Old is the full pre-image row.
	ChangeDelete
)

// RowChange is one committed mutation: the epoch it committed at, the row it
// touched, and (for updates and deletes) the row's pre-image — which is what
// lets a delta consumer map a join-table change back to the base rows that
// were partnered with the OLD key, not just the new one.
type RowChange struct {
	Epoch uint64
	Row   int
	Kind  ChangeKind
	Old   []predicate.Value
}

// maxChangeLog is the default per-table change-log bound (override with
// WithChangeLogCap). On overflow the oldest half is trimmed and SnapshotSince
// reports LogOK=false for epochs older than the trim point, telling delta
// consumers to fall back to a full rebuild.
const maxChangeLog = 1 << 15

// logCapacity is the table's configured change-log bound.
func (t *Table) logCapacity() int {
	if t.cfg.logCap > 0 {
		return t.cfg.logCap
	}
	return maxChangeLog
}

// Epoch returns the table's current mutation epoch: 0 for a fresh table,
// bumped once by every commit that touches the table (and by compaction).
func (t *Table) Epoch() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.gen
}

// EpochStamp folds the named tables' epochs into one monotonically
// non-decreasing version stamp. Every commit bumps each table it touches
// once, so the sum moves on every commit — the cheap freshness
// check the result-cache tier reads per request to decide whether its
// entries still describe the store it is serving (unknown table names
// contribute nothing, matching Table's nil return).
func (db *DB) EpochStamp(names ...string) uint64 {
	var stamp uint64
	for _, name := range names {
		if t := db.Table(name); t != nil {
			stamp += t.Epoch()
		}
	}
	return stamp
}

// Alive reports whether row id exists and is not tombstoned.
func (t *Table) Alive(id int) bool {
	t.state.RLock()
	defer t.state.RUnlock()
	return id >= 0 && id < t.n && !t.isDead(id)
}

// isDead is the unlocked tombstone test for scan internals; callers hold
// the state lock at least shared.
func (t *Table) isDead(id int) bool {
	return t.nDead > 0 && t.dead.Contains(id)
}

// commitEpochLocked assigns the epoch of one committing mutation: every
// mutation of a commit shares its epoch, bumped on the table's first
// mutation. fn, when non-nil, runs under t.mu (the eager index-repair
// hook). Callers hold the state lock exclusively inside a commit.
func (t *Table) commitEpochLocked(fn func()) uint64 {
	t.mu.Lock()
	if t.batch.epoch == 0 {
		t.gen++
		t.batch.epoch = t.gen
	}
	epoch := t.batch.epoch
	if fn != nil {
		fn()
	}
	t.mu.Unlock()
	return epoch
}

// Delete tombstones row id. It returns false when the id is out of range or
// the row is already dead. The row's values stay in the column vectors
// (zone maps remain sound over-approximations); every read path filters the
// tombstone bitmap.
func (t *Table) Delete(id int) bool {
	var ok bool
	t.commitOne(func() { ok = t.deleteLocked(id) })
	return ok
}

func (t *Table) deleteLocked(id int) bool {
	if id < 0 || id >= t.n || t.isDead(id) {
		return false
	}
	old := t.rowVals(id)
	t.dead.Add(id)
	t.nDead++
	epoch := t.commitEpochLocked(nil)
	t.logChange(RowChange{Epoch: epoch, Row: id, Kind: ChangeDelete, Old: old})
	return true
}

// deleteByKeyLocked tombstones up to limit (-1 = all) live rows matching
// (pos, key). Callers hold the state lock exclusively.
func (t *Table) deleteByKeyLocked(pos int, key predicate.Value, limit int) int {
	n := 0
	for _, id := range t.matchLiveLocked(pos, key) {
		if limit >= 0 && n >= limit {
			break
		}
		if t.deleteLocked(id) {
			n++
		}
	}
	return n
}

// matchLiveLocked probes the hash index on pos (building it if missing) and
// returns a copy of the live matching row ids — a copy because the caller
// is about to mutate, and eager index repair may rewrite the bucket being
// iterated. Callers hold the state lock exclusively.
func (t *Table) matchLiveLocked(pos int, key predicate.Value) []int {
	idx := t.ensureIndex(pos)
	var out []int
	for _, id := range idx.rows(key) {
		if !t.isDead(int(id)) {
			out = append(out, int(id))
		}
	}
	return out
}

// Update overwrites row id with a full replacement row. Changed columns that
// carry a hash index are repaired eagerly (old bucket drops the id, new
// bucket gains it); the touched zone-map blocks are rebuilt exactly when
// the commit closes.
func (t *Table) Update(id int, vals ...predicate.Value) error {
	if len(vals) != len(t.schema.Columns) {
		return fmt.Errorf("relstore: %s expects %d values, got %d",
			t.schema.Name, len(t.schema.Columns), len(vals))
	}
	var err error
	t.commitOne(func() { err = t.updateLocked(id, vals) })
	return err
}

// UpdateCol overwrites a single column of row id, leaving the rest of the
// row untouched.
func (t *Table) UpdateCol(id int, col string, v predicate.Value) error {
	pos, ok := t.colIdx[col]
	if !ok {
		return fmt.Errorf("relstore: %s has no column %q", t.schema.Name, col)
	}
	var err error
	t.commitOne(func() { err = t.updateColLocked(id, pos, v) })
	return err
}

func (t *Table) updateColLocked(id, pos int, v predicate.Value) error {
	if id < 0 || id >= t.n {
		return fmt.Errorf("relstore: %s has no row %d", t.schema.Name, id)
	}
	if t.isDead(id) {
		return fmt.Errorf("relstore: %s row %d is deleted", t.schema.Name, id)
	}
	vals := t.rowVals(id)
	vals[pos] = v
	return t.updateLocked(id, vals)
}

func (t *Table) updateLocked(id int, vals []predicate.Value) error {
	if id < 0 || id >= t.n {
		return fmt.Errorf("relstore: %s has no row %d", t.schema.Name, id)
	}
	if t.isDead(id) {
		return fmt.Errorf("relstore: %s row %d is deleted", t.schema.Name, id)
	}
	old := t.rowVals(id)
	for i, v := range vals {
		// Skip untouched columns: a single-column update must not pay the
		// zone rebuild (and dict re-hash) of its four siblings. NaN never
		// compares equal to itself, so a NaN write conservatively re-sets.
		if old[i] == v {
			continue
		}
		// The zone rebuild waits for the commit's single repair pass.
		blk := t.cols[i].setRaw(id, v)
		t.batch.touched = append(t.batch.touched, zoneTouch{c: t.cols[i], blk: blk})
	}
	epoch := t.commitEpochLocked(func() {
		for col, idx := range t.indexes {
			if indexKey(old[col]) == indexKey(vals[col]) {
				continue
			}
			idx.remove(old[col], id)
			idx.add(vals[col], id)
		}
	})
	t.logChange(RowChange{Epoch: epoch, Row: id, Kind: ChangeUpdate, Old: old})
	return nil
}

// rowVals boxes the full row — the pre-image capture for the change log.
// Callers hold the state lock.
func (t *Table) rowVals(id int) []predicate.Value {
	out := make([]predicate.Value, len(t.cols))
	for i, c := range t.cols {
		out[i] = c.value(id)
	}
	return out
}

// logChange appends one committed mutation, trimming the oldest half when
// the log exceeds its capacity (logCapacity / WithChangeLogCap). Callers
// hold the state lock exclusively.
func (t *Table) logChange(ch RowChange) {
	if len(t.chLog) >= t.logCapacity() {
		half := len(t.chLog) / 2
		if half == 0 {
			half = 1
		}
		t.logFloor = t.chLog[half-1].Epoch
		t.chLog = append(t.chLog[:0:0], t.chLog[half:]...)
		if sc := t.cfg.counters; sc != nil {
			sc.LogOverflows.Add(1)
		}
	}
	t.chLog = append(t.chLog, ch)
}

// changedSinceLocked returns copies of the committed mutations with epoch >
// since, oldest first. ok=false means the log no longer reaches back that
// far (trimmed) and the caller must fall back to a full rebuild of whatever
// it derived from the table. Callers hold the state lock (at least shared):
// SnapshotSince takes it, and the join-repair path already runs inside a
// scan's lock scope, where re-acquiring the shared lock could deadlock
// behind a queued writer.
func (t *Table) changedSinceLocked(since uint64) (changes []RowChange, ok bool) {
	if since < t.logFloor {
		return nil, false
	}
	// Binary search for the first entry past since (epochs ascend).
	lo, hi := 0, len(t.chLog)
	for lo < hi {
		mid := (lo + hi) / 2
		if t.chLog[mid].Epoch <= since {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(t.chLog) {
		return nil, true
	}
	return append([]RowChange(nil), t.chLog[lo:]...), true
}

// SyncSnapshot is one atomic drain of a table's maintenance feeds: the
// current epoch, the committed changes since the consumer's epoch, and the
// compaction remaps it must compose first — all captured under a single
// shared acquisition, so a compaction cannot slip between the reads and
// leave the consumer with changes remapped through a compaction record it
// never saw (double-applying the remap on the next drain).
type SyncSnapshot struct {
	Epoch       uint64
	Changes     []RowChange
	Compactions []Compaction
	// LogOK=false: the change log was trimmed past since (rebuild).
	LogOK bool
	// CompOK=false: compaction history was evicted past since (rebuild).
	CompOK bool
}

// SnapshotSince captures a SyncSnapshot for a consumer synced to epoch
// since. The returned slices are copies/immutable and safe to use after the
// lock is released.
func (t *Table) SnapshotSince(since uint64) SyncSnapshot {
	t.state.RLock()
	defer t.state.RUnlock()
	var s SyncSnapshot
	t.mu.RLock()
	s.Epoch = t.gen
	t.mu.RUnlock()
	s.Changes, s.LogOK = t.changedSinceLocked(since)
	s.Compactions, s.CompOK = t.compactionsSinceLocked(since)
	return s
}

// lockShared acquires the data locks of up to two tables shared, in
// creation order (so concurrent scans over the same table pair can never
// deadlock against a pending writer), and returns the matching unlock. b
// may be nil or equal to a.
func lockShared(a, b *Table) func() {
	if b == a {
		b = nil
	}
	if b == nil {
		a.state.RLock()
		return a.state.RUnlock
	}
	first, second := a, b
	if b.seq < a.seq {
		first, second = b, a
	}
	first.state.RLock()
	second.state.RLock()
	return func() {
		second.state.RUnlock()
		first.state.RUnlock()
	}
}
