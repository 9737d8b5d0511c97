package relstore

import (
	"fmt"

	"hypre/internal/predicate"
)

// Batch collects key-addressed mutations — possibly spanning tables — and
// commits them as one unit. Under group commit the whole batch is a single
// queue entry: one enqueue, one wake, and atomic visibility (no scan can
// observe a paper without its authorship links), which is what lets a
// logical op that touches several tables flow through the leader as one op
// group instead of stalling per mutation. On a serial store Commit degrades
// to applying the mutations in order, each through the normal serial path.
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

// Commit applies the staged mutations: as one atomic op group through the
// group-commit queue, or in staging order through the serial write path.
// The batch must not be reused after Commit.
func (b *Batch) Commit() error {
	if b.err != nil {
		return b.err
	}
	if len(b.muts) == 0 {
		return nil
	}
	if b.db.cfg.groupCommit {
		b.db.cfg.cq.commit(b.muts)
		return nil
	}
	for _, m := range b.muts {
		m.t.state.Lock()
		m.do()
		m.t.maybeCompactLocked()
		m.t.state.Unlock()
	}
	return nil
}
