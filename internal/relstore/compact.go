package relstore

import "hypre/internal/bitset"

// This file is the tombstone-compaction half of the sustained-write path.
// Deletes are tombstones, so a long-lived stream monotonically grows the
// physical row count and every scan keeps paying for dead rows. When a
// commit leaves the dead-row fraction at or above the WithCompaction
// threshold, the table compacts: live rows are re-appended into fresh
// column vectors (rebuilding zone maps and string dictionaries tight), the
// tombstone mask resets, and the old→new row-id remap is published as a
// Compaction record for derived caches — evaluator row plumbing, delta
// masks, cache footprints — to apply incrementally via CompactionsSince.
// Compaction is the one event that breaks the "row ids are stable forever"
// contract, which is why it is opt-in per DB and announced through the same
// epoch gate as every other mutation.

// Compaction is one published row-id remap: Remap[old] is the row's new id,
// or -1 when the row was dead and dropped. Epoch is the generation the
// compaction committed at — a consumer synced to epoch e needs exactly the
// records with Epoch > e, oldest first, composed in order.
type Compaction struct {
	Epoch uint64
	Remap []int32
}

// maxCompactions bounds the retained remap history. A consumer further
// behind than the evicted record cannot reconstruct current row ids and
// must rebuild (CompactionsSince reports ok=false).
const maxCompactions = 4

// maybeCompactLocked compacts when the dead-row fraction crosses the
// configured threshold. Callers hold the state lock exclusively; no-op
// unless WithCompaction enabled it and the table is at least a block big
// (tiny tables churn 100% of their rows and would compact every commit).
func (t *Table) maybeCompactLocked() {
	frac := t.cfg.compactFrac
	if frac <= 0 || t.nDead == 0 || t.n < blockSize {
		return
	}
	if float64(t.nDead) < frac*float64(t.n) {
		return
	}
	t.compactLocked()
}

// compactLocked rewrites the table without its dead rows and publishes the
// remap. Callers hold the state lock exclusively, after the commit's
// applyBatch is closed (Batch.Commit compacts after endBatchLocked).
func (t *Table) compactLocked() {
	remap := make([]int32, t.n)
	live := 0
	for id := 0; id < t.n; id++ {
		if t.isDead(id) {
			remap[id] = -1
		} else {
			remap[id] = int32(live)
			live++
		}
	}
	for i, c := range t.cols {
		nc := &column{}
		for id := 0; id < t.n; id++ {
			if remap[id] >= 0 {
				nc.append(c.value(id))
			}
		}
		t.cols[i] = nc
	}
	t.n = live
	t.nPublic.Store(int64(live))
	t.dead = bitset.New()
	t.nDead = 0

	// Remap the change log so consumers behind the compaction can still
	// drain it: surviving rows get their new id; entries for dropped rows
	// keep their pre-images under Row = -1 (updates included — a re-key
	// that later died still tells the consumer which OLD key's partners to
	// refresh), except dropped inserts, which vanish entirely: any pid they
	// introduced either died with them (the kept -1 delete carries it) or
	// was never seen by a consumer this far behind.
	nl := make([]RowChange, 0, len(t.chLog))
	for _, ch := range t.chLog {
		if ch.Row >= 0 && ch.Row < len(remap) && remap[ch.Row] >= 0 {
			ch.Row = int(remap[ch.Row])
			nl = append(nl, ch)
			continue
		}
		if ch.Kind == ChangeInsert {
			continue
		}
		ch.Row = -1
		nl = append(nl, ch)
	}
	t.chLog = nl

	t.mu.Lock()
	t.gen++
	epoch := t.gen
	// Row-id-keyed derived structures are now all wrong: drop the hash
	// indexes and join plumbing and let them rebuild lazily over the
	// compacted vectors.
	t.indexes = make(map[int]*hashIndex)
	t.exists = nil
	t.mu.Unlock()

	t.comps = append(t.comps, Compaction{Epoch: epoch, Remap: remap})
	if len(t.comps) > maxCompactions {
		t.compactFloor = t.comps[0].Epoch
		t.comps = append(t.comps[:0:0], t.comps[1:]...)
	}
	if sc := t.cfg.counters; sc != nil {
		sc.Compactions.Add(1)
	}
}

// CompactionsSince returns the row-id remaps committed after epoch since,
// oldest first — compose them in order to map a pre-compaction row id
// forward. ok=false means the history no longer reaches back that far and
// the caller must rebuild whatever it keyed by row id.
func (t *Table) CompactionsSince(since uint64) ([]Compaction, bool) {
	t.state.RLock()
	defer t.state.RUnlock()
	return t.compactionsSinceLocked(since)
}

func (t *Table) compactionsSinceLocked(since uint64) ([]Compaction, bool) {
	if since < t.compactFloor {
		return nil, false
	}
	var out []Compaction
	for _, c := range t.comps {
		if c.Epoch > since {
			out = append(out, c)
		}
	}
	return out, true
}
