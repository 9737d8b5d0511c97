package relstore

import (
	"cmp"
	"fmt"
	"slices"

	"hypre/internal/predicate"
)

// Batch collects key-addressed mutations — possibly spanning tables — and
// commits them as one unit. It is the store's only write path: Table.Insert,
// Delete, Update and UpdateCol each run as a one-mutation batch, so every
// commit is one hold. Commit locks exactly the tables the batch touches,
// exclusively and in creation order (the order scans take their shared
// locks, so there is no deadlock), applies the mutations in staging order,
// repairs each dirtied zone block once, and unlocks. No scan can observe an
// intermediate state — a paper is never visible without the authorship
// links staged beside it — and every table the batch touches moves to one
// new epoch, however many of its rows changed.
//
// Mutations are validated (table, columns, arity) as they are added;
// Commit reports the first staging error without applying anything. Apply
// effects (rows matched, assigned ids) are not reported back — batch
// callers address rows by key and treat zero matches as the benign tail of
// a racing delete. Key-addressed ops are also compaction-proof by
// construction: they never hold a row id across commits.
type Batch struct {
	db   *DB
	muts []tableMut
	err  error
}

// tableMut is one staged mutation: a closure that applies it to its table
// under the exclusive state lock (capturing its own result vars).
type tableMut struct {
	t  *Table
	do func()
}

// NewBatch starts an empty mutation batch against the store.
func (db *DB) NewBatch() *Batch { return &Batch{db: db} }

// table resolves a table name, recording the first failure.
func (b *Batch) table(name string) *Table {
	if b.err != nil {
		return nil
	}
	t := b.db.Table(name)
	if t == nil {
		b.err = fmt.Errorf("relstore: no table %q", name)
	}
	return t
}

// pos resolves a column of t, recording the first failure.
func (b *Batch) pos(t *Table, col string) int {
	if b.err != nil {
		return -1
	}
	p, ok := t.colIdx[col]
	if !ok {
		b.err = fmt.Errorf("relstore: %s has no column %q", t.schema.Name, col)
	}
	return p
}

// Insert stages an append of one row.
func (b *Batch) Insert(table string, vals ...predicate.Value) *Batch {
	t := b.table(table)
	if t == nil {
		return b
	}
	if len(vals) != len(t.schema.Columns) {
		b.err = fmt.Errorf("relstore: %s expects %d values, got %d",
			t.schema.Name, len(t.schema.Columns), len(vals))
		return b
	}
	b.muts = append(b.muts, tableMut{t: t, do: func() { t.insertLocked(vals) }})
	return b
}

// DeleteByKey stages a tombstone of every live row whose col equals key.
func (b *Batch) DeleteByKey(table, col string, key predicate.Value) *Batch {
	return b.deleteByKey(table, col, key, -1)
}

// DeleteOneByKey stages a tombstone of at most one live row whose col
// equals key.
func (b *Batch) DeleteOneByKey(table, col string, key predicate.Value) *Batch {
	return b.deleteByKey(table, col, key, 1)
}

func (b *Batch) deleteByKey(table, col string, key predicate.Value, limit int) *Batch {
	t := b.table(table)
	if t == nil {
		return b
	}
	if pos := b.pos(t, col); pos >= 0 {
		b.muts = append(b.muts, tableMut{t: t, do: func() { t.deleteByKeyLocked(pos, key, limit) }})
	}
	return b
}

// UpdateColByKey stages an overwrite of col on every live row whose keyCol
// equals key.
func (b *Batch) UpdateColByKey(table, keyCol string, key predicate.Value, col string, v predicate.Value) *Batch {
	t := b.table(table)
	if t == nil {
		return b
	}
	kpos := b.pos(t, keyCol)
	pos := b.pos(t, col)
	if kpos >= 0 && pos >= 0 {
		b.muts = append(b.muts, tableMut{t: t, do: func() {
			for _, id := range t.matchLiveLocked(kpos, key) {
				// The staged column resolves ahead of time, so the only
				// updateColLocked failure mode (unknown position) is gone.
				_ = t.updateColLocked(id, pos, v)
			}
		}})
	}
	return b
}

// Commit applies the staged mutations as one hold: lock the touched tables
// exclusively in creation order, open an applyBatch on each, apply the
// mutations in staging order, then repair each table's dirtied zone blocks,
// compact if the threshold is crossed, and unlock in reverse order. The
// batch must not be reused after Commit.
func (b *Batch) Commit() error {
	if b.err != nil {
		return b.err
	}
	tabs := make([]*Table, 0, 2)
	for _, m := range b.muts {
		if !slices.Contains(tabs, m.t) {
			tabs = append(tabs, m.t)
		}
	}
	slices.SortFunc(tabs, func(x, y *Table) int { return cmp.Compare(x.seq, y.seq) })
	for _, t := range tabs {
		t.state.Lock()
		t.batch = &applyBatch{}
	}
	for _, m := range b.muts {
		m.do()
	}
	for _, t := range tabs {
		t.endBatchLocked()
		t.maybeCompactLocked()
	}
	for i := len(tabs) - 1; i >= 0; i-- {
		tabs[i].state.Unlock()
	}
	return nil
}

// commitOne runs one single-table mutation as a one-mutation Batch — the
// path Table.Insert/Delete/Update/UpdateCol take. Commit's only error is a
// staging error, and nothing is staged here.
func (t *Table) commitOne(do func()) {
	_ = (&Batch{muts: []tableMut{{t: t, do: do}}}).Commit()
}

// applyBatch is the in-flight commit context for one table: the epoch every
// mutation of the commit shares (assigned lazily on the table's first
// mutation), and the zone blocks the commit dirtied (repaired once in
// endBatchLocked instead of once per overwrite).
type applyBatch struct {
	epoch   uint64
	touched []zoneTouch
}

type zoneTouch struct {
	c   *column
	blk int
}

// endBatchLocked repairs every zone block the commit dirtied — each block
// once, and each touched column's NaN shortcut once — then closes the
// commit. Caller holds the state lock exclusively.
func (t *Table) endBatchLocked() {
	b := t.batch
	t.batch = nil
	if len(b.touched) == 0 {
		return
	}
	seen := make(map[zoneTouch]struct{}, len(b.touched))
	cols := make(map[*column]struct{})
	for _, z := range b.touched {
		if _, dup := seen[z]; dup {
			continue
		}
		seen[z] = struct{}{}
		z.c.rebuildZone(z.blk)
		cols[z.c] = struct{}{}
	}
	for c := range cols {
		c.refreshNaN()
	}
}
