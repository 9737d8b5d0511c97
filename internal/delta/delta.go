// Package delta is the incremental-maintenance subsystem: it keeps a
// combine.Evaluator's predicate store — the resident bitmaps every served
// query's predicates live in, and through them anything built fresh over
// that evaluator: pair tables, PEPS rankings, TA lists — consistent with a
// mutating relational store, at the cost of the mutation deltas instead of
// a full rematerialization, and hands an attached serving cache the row
// delta its repair reads.
//
// The pipeline per Sync:
//
//  1. Drain the committed mutations of the base table and the join table
//     from their bounded change logs (relstore.SnapshotSince, epoch-keyed).
//  2. Map join-table changes back to affected base rows through the join
//     key — using each change's pre-image for deletes and updates, so rows
//     partnered with the OLD key are repaired too, not just the new one.
//  3. Re-evaluate every resident predicate over exactly the touched base
//     rows (Evaluator.RefreshRowSetDelta → each resident plan's
//     relstore.Plan.MatchLeftRowSet, the store's row selection restricted
//     to the touched rows), patch the bitmaps
//     copy-on-write, and pass the resulting combine.RowDelta — the moved
//     predicates, the touched pids, and what each live touched row now
//     matches — to the cache. This is the only re-match a Sync runs.
//
// Tombstone compaction is absorbed inside the evaluator: a compaction
// renumbers the base table's row ids, so Sync composes the published
// remaps (relstore.SnapshotSince delivers them atomically with the change
// drain) and reindexes the evaluator's row plumbing (Evaluator.RemapRows)
// before the refresh. Dropped rows arrive as Row = -1 change entries whose
// pre-images carry the pid; the refresh clears those pids by dictionary
// slot, unless a live row still holding one (found through the key index)
// re-matches, and counts them among the touched pids, so the cache repairs
// the entries they left. Join-table compactions need none of this: nothing
// the maintainer derives is keyed by join-table row ids.
//
// Sync falls back loudly to a full rebuild in three cases: a change log has
// been trimmed past the maintainer's last-synced epoch (CauseLogOverflow),
// the base table's compaction history has been evicted
// (CauseCompactionLost), or a base row's key column was rewritten
// (CauseKeyRewrite). The rebuild is Evaluator.Invalidate, after which
// predicates rematerialize from the store's current state on next use. The
// fallback reports its cause (SyncStats.RebuildCause, per-cause obs
// counters), so an operator can tell an undersized change log from a
// key-column rewrite. The evaluator itself always refreshes in place: its
// contract (every predicate scans the base table, the key binds to it)
// leaves it no mode without row plumbing.
//
// Requirements: the evaluator's key attribute must be a unique non-NULL
// key of the base table (dblp.pid) — each base row then owns its dense
// bitmap bit, which is what makes the per-row patch exact. Updating the
// key column itself triggers a full rebuild rather than silent corruption.
package delta

import (
	"fmt"
	"time"

	"hypre/internal/bitset"
	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// Maintainer owns one evaluator and keeps its resident bitmaps in sync with
// the store. Sync must not run concurrently with itself, but store
// mutations may race a Sync: every read Sync issues (change-log drains,
// Value lookups, MatchLeftRowSet scans) takes the store's shared state
// locks, and any mutation committed after the epochs captured at the top
// of the call is simply replayed — idempotently — by the next Sync. Readers
// never see a refresh half done: it publishes its patched bitmaps as one
// evaluator version. A version may still hold rows of a commit the drain
// missed (a touched row re-matched, or a first-sight scan, at the store's
// current state); the next Sync replays that commit, and the serving
// cache's epoch stamp keeps such a version out of its answers meanwhile.
type Maintainer struct {
	ev *combine.Evaluator
	db *relstore.DB

	left, right  *relstore.Table // base and (optional) join table
	leftName     string
	leftJoinCol  string
	rightJoinCol string
	rightJoinPos int // position of rightJoinCol in the join table
	keyCol       string
	keyPos       int // position of the key column in the base table
	leftEpoch    uint64
	rightEpoch   uint64

	cache CacheSyncer

	// Observability, attached before serving like the cache syncer. All
	// stay nil when unattached; Sync then never reads the clock.
	syncHist    *obs.Histogram // delta_sync: wall time per Sync
	touchedHist *obs.Histogram // delta_touched_rows: re-evaluated rows per Sync
	rebuilds    *obs.Counter   // delta_full_rebuilds: loud-fallback count
	reg         *obs.Registry  // per-cause rebuild counters, created on demand
}

// AttachObs registers the maintainer's maintenance metrics with a registry:
// a per-Sync wall-time histogram ("delta_sync"), a touched-rows histogram
// ("delta_touched_rows"), a full-rebuild counter ("delta_full_rebuilds"),
// and — on demand, as fallbacks occur — one counter per rebuild cause
// ("delta_rebuilds_log_overflow", "delta_rebuilds_key_rewrite",
// "delta_rebuilds_compaction_lost"). Call before serving traffic,
// alongside AttachCache.
func (m *Maintainer) AttachObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	m.reg = reg
	m.syncHist = reg.Histogram("delta_sync")
	m.touchedHist = reg.Histogram("delta_touched_rows")
	m.rebuilds = reg.Counter("delta_full_rebuilds")
}

// CacheSyncer is the hook a serving-tier cache registers to ride the
// maintainer's delta pipeline. It has two methods:
//   - ApplyDelta, after each incremental Sync, receives the refresh's row
//     delta (nil when no predicate is resident or nothing was touched) and
//     the epochs the maintainer synced to, so the cache can repair (or,
//     failing that, drop) exactly the entries naming a moved predicate and
//     re-open itself for the new store snapshot.
//   - InvalidateAll, on a full rebuild (log trimmed, key-column rewrite),
//     drops everything.
//
// internal/cache.Server implements it.
type CacheSyncer interface {
	ApplyDelta(d *combine.RowDelta, leftEpoch, rightEpoch uint64)
	InvalidateAll(leftEpoch, rightEpoch uint64)
}

// AttachCache registers a cache for delta-aware invalidation. Call before
// serving traffic; the maintainer notifies it on every Sync. The cache is
// immediately synchronized to the maintainer's current epochs.
func (m *Maintainer) AttachCache(cs CacheSyncer) {
	m.cache = cs
	cs.ApplyDelta(nil, m.leftEpoch, m.rightEpoch)
}

// Rebuild causes, reported in SyncStats.RebuildCause and as obs counter
// suffixes ("delta_rebuilds_" + cause).
const (
	// CauseLogOverflow: a change log was trimmed past the last-synced epoch
	// (undersized relstore.WithChangeLogCap for the sync cadence).
	CauseLogOverflow = "log_overflow"
	// CauseKeyRewrite: a base-row key-column update re-keyed a dense bitmap
	// slot, which the incremental patch cannot express.
	CauseKeyRewrite = "key_rewrite"
	// CauseCompactionLost: the base table compacted more times than its
	// bounded remap history retains since the last sync.
	CauseCompactionLost = "compaction_lost"
)

// SyncStats reports what one Sync cost.
type SyncStats struct {
	// TouchedRows is the number of distinct base rows re-evaluated.
	TouchedRows int
	// ChangedPreds is the number of resident predicates whose tuple set
	// moved.
	ChangedPreds int
	// Compactions is the number of base-table compaction remaps absorbed.
	Compactions int
	// FullRebuild reports that the incremental path was unavailable and the
	// caches were rebuilt from scratch; RebuildCause says why (one of the
	// Cause* constants).
	FullRebuild  bool
	RebuildCause string
}

// NewMaintainer snapshots the tables' epochs and materializes prefs into the
// evaluator's bitmap cache (nil: maintain whatever the evaluator caches
// later), so the first Sync only replays mutations committed after this
// call began.
func NewMaintainer(ev *combine.Evaluator, prefs []hypre.ScoredPred) (*Maintainer, error) {
	base := ev.BaseQuery(predicate.True{})
	db := ev.DB()
	left := db.Table(base.From)
	if left == nil {
		return nil, fmt.Errorf("delta: unknown base table %q", base.From)
	}
	m := &Maintainer{
		ev:       ev,
		db:       db,
		left:     left,
		leftName: base.From,
	}
	if base.Join != nil {
		right := db.Table(base.Join.Table)
		if right == nil {
			return nil, fmt.Errorf("delta: unknown join table %q", base.Join.Table)
		}
		pos := right.ColumnIndex(base.Join.RightCol)
		if pos < 0 {
			return nil, fmt.Errorf("delta: %s has no column %q", base.Join.Table, base.Join.RightCol)
		}
		m.right = right
		m.leftJoinCol = base.Join.LeftCol
		m.rightJoinCol = base.Join.RightCol
		m.rightJoinPos = pos
	}
	m.keyCol = ev.KeyColumn(base.From)
	m.keyPos = left.ColumnIndex(m.keyCol)
	if m.keyPos < 0 {
		return nil, fmt.Errorf("delta: %s has no key column %q", base.From, m.keyCol)
	}
	// Capture epochs before materializing: mutations racing the scans are
	// replayed by the first Sync, and re-evaluating a row is idempotent.
	m.leftEpoch = left.Epoch()
	if m.right != nil {
		m.rightEpoch = m.right.Epoch()
	}
	if err := ev.MaterializeAll(prefs); err != nil {
		return nil, err
	}
	return m, nil
}

// Sync drains the tables' change logs and repairs the evaluator's bitmap
// cache incrementally; see the package comment for the pipeline. It is
// cheap when nothing changed (two epoch reads). When AttachObs has run, the
// attached histograms and the rebuild counters observe the pass.
func (m *Maintainer) Sync() (SyncStats, error) {
	if m.syncHist == nil {
		return m.sync()
	}
	started := time.Now()
	st, err := m.sync()
	m.syncHist.RecordDuration(time.Since(started))
	m.touchedHist.Record(int64(st.TouchedRows))
	if st.FullRebuild {
		m.rebuilds.Add(1)
		m.reg.Counter("delta_rebuilds_" + st.RebuildCause).Add(1)
	}
	return st, err
}

func (m *Maintainer) sync() (SyncStats, error) {
	// One atomic drain per table: epoch, changes, and compaction remaps
	// captured under a single lock acquisition, so the drained changes are
	// remapped through exactly the compactions the snapshot reports.
	ls := m.left.SnapshotSince(m.leftEpoch)
	rs := relstore.SyncSnapshot{LogOK: true, CompOK: true}
	if m.right != nil {
		rs = m.right.SnapshotSince(m.rightEpoch)
	}
	lEpoch, rEpoch := ls.Epoch, rs.Epoch
	if !ls.LogOK || !rs.LogOK {
		return m.rebuild(lEpoch, rEpoch, CauseLogOverflow)
	}
	// Join-table compactions (rs.Compactions) are deliberately ignored:
	// nothing the maintainer derives is keyed by join-table row ids — the
	// drained entries' Row fields were remapped in place, and Value lookups
	// below use the current ids. Only losing the BASE table's remap history
	// strands row-keyed state.
	if !ls.CompOK {
		return m.rebuild(lEpoch, rEpoch, CauseCompactionLost)
	}
	lch, rch := ls.Changes, rs.Changes
	if len(lch) == 0 && len(rch) == 0 && len(ls.Compactions) == 0 {
		m.leftEpoch, m.rightEpoch = lEpoch, rEpoch
		if m.cache != nil {
			// Nothing touched, but the stamp may have advanced (empty
			// commits); let the cache re-open for the new epochs.
			m.cache.ApplyDelta(nil, lEpoch, rEpoch)
		}
		return SyncStats{}, nil
	}

	// The touched-row mask accumulates directly in compressed form: change
	// logs name rows in roughly ascending batches, so the mask stays a
	// handful of array/bitmap containers regardless of how wide the table
	// is.
	touched := bitset.New()
	var droppedPids []int64
	dropSeen := map[int64]struct{}{}
	for _, c := range lch {
		if c.Row < 0 {
			// Pre-image of a row compaction dropped: there is no row left to
			// re-evaluate, so the refresh below clears its pid by dictionary
			// slot. Every key a dropped row ever held appears in some -1
			// entry's pre-image — intermediate keys in the follow-up update's
			// Old, the final key in the delete's. A live row still holding
			// the key is re-matched with the batch, so the pid is cleared
			// only when no live row owns it.
			key := c.Old[m.keyPos]
			if _, dup := dropSeen[key.AsInt()]; !dup {
				dropSeen[key.AsInt()] = struct{}{}
				droppedPids = append(droppedPids, key.AsInt())
				if err := m.addRows(touched, m.keyCol, key); err != nil {
					return SyncStats{}, err
				}
			}
			continue
		}
		// A key-column update would re-key the row's dense bitmap slot;
		// the incremental patch cannot express that, so rebuild loudly.
		if c.Kind == relstore.ChangeUpdate &&
			indexKeyChanged(c.Old[m.keyPos], m.left.Value(c.Row, m.keyCol)) {
			return m.rebuild(lEpoch, rEpoch, CauseKeyRewrite)
		}
		touched.Add(c.Row)
	}
	for _, c := range rch {
		// Affected base rows are the join partners of the change's key —
		// the current key for inserts, the pre-image key for deletes, and
		// both for updates (old partners lost it, new partners gained it).
		// A compaction-dropped join row (Row = -1) has only its pre-image
		// key; the keys it held later all surface in its successor entries.
		switch c.Kind {
		case relstore.ChangeInsert:
			if c.Row < 0 {
				continue // dropped inserts are pruned from the log; be safe
			}
			if err := m.addRows(touched, m.leftJoinCol, m.right.Value(c.Row, m.rightJoinCol)); err != nil {
				return SyncStats{}, err
			}
		case relstore.ChangeDelete:
			if err := m.addRows(touched, m.leftJoinCol, c.Old[m.rightJoinPos]); err != nil {
				return SyncStats{}, err
			}
		case relstore.ChangeUpdate:
			if err := m.addRows(touched, m.leftJoinCol, c.Old[m.rightJoinPos]); err != nil {
				return SyncStats{}, err
			}
			if c.Row < 0 {
				continue
			}
			if err := m.addRows(touched, m.leftJoinCol, m.right.Value(c.Row, m.rightJoinCol)); err != nil {
				return SyncStats{}, err
			}
		}
	}

	// Compaction absorption, before the row-driven refresh: reindex the
	// evaluator's row plumbing through the composed remap; the refresh then
	// clears the dropped pids' bits with the touched rows' re-match, so a
	// pid a surviving row holds keeps its bit.
	if len(ls.Compactions) > 0 {
		m.ev.RemapRows(composeRemaps(ls.Compactions), lEpoch)
	}
	d, err := m.ev.RefreshRowSetDelta(touched, droppedPids)
	if err != nil {
		return SyncStats{}, err
	}
	m.leftEpoch, m.rightEpoch = lEpoch, rEpoch
	if m.cache != nil {
		m.cache.ApplyDelta(d, lEpoch, rEpoch)
	}
	st := SyncStats{
		TouchedRows: touched.Len(),
		Compactions: len(ls.Compactions),
	}
	if d != nil {
		st.ChangedPreds = len(d.Moved)
	}
	return st, nil
}

// composeRemaps folds an ordered run of compaction remaps into one old→new
// map over the first record's domain. Compaction preserves relative row
// order, so rows inserted between two compactions land strictly after every
// composed survivor in the new id space — a plumbing rebuilt over just the
// composed domain stays a valid prefix that the row-driven refresh extends.
func composeRemaps(comps []relstore.Compaction) []int32 {
	remap := comps[0].Remap
	for _, c := range comps[1:] {
		next := make([]int32, len(remap))
		for i, mid := range remap {
			if mid < 0 || int(mid) >= len(c.Remap) {
				next[i] = -1
			} else {
				next[i] = c.Remap[mid]
			}
		}
		remap = next
	}
	return remap
}

// addRows folds the live base rows whose column col equals key into
// touched: the join partners of a join-table change, or the rows still
// holding a compaction-dropped pid.
func (m *Maintainer) addRows(touched *bitset.Set, col string, key predicate.Value) error {
	lids, err := m.db.LookupRowIDs(m.leftName, col, key)
	if err != nil {
		return err
	}
	for _, lid := range lids {
		touched.Add(lid)
	}
	return nil
}

// rebuild is the loud fallback: drop every derived cache, so the next use
// rebuilds from the store's current state, and report why the incremental
// path bailed.
func (m *Maintainer) rebuild(lEpoch, rEpoch uint64, cause string) (SyncStats, error) {
	m.ev.Invalidate()
	m.leftEpoch, m.rightEpoch = lEpoch, rEpoch
	if m.cache != nil {
		m.cache.InvalidateAll(lEpoch, rEpoch)
	}
	return SyncStats{FullRebuild: true, RebuildCause: cause}, nil
}

// indexKeyChanged reports whether a value change re-keys an equality
// lookup, under the store's integral-float collapsing.
func indexKeyChanged(a, b predicate.Value) bool {
	eq, ok := predicate.Compare(a, b)
	return !ok || eq != 0
}
