package relstore

import "sync/atomic"

// StoreCounters is the write-path observability surface: lock-free counters
// the relstore increments as the sustained-stream machinery runs. One
// instance is attached per DB (WithStoreCounters); bench/ snapshots it
// into its relstore.* layer metrics so a staleness spike can be attributed
// to log overflow and a scan-cost drop to compaction.
type StoreCounters struct {
	// LogOverflows counts change-log trims: the oldest half of a table's
	// log was dropped, so any delta consumer still behind the trim point
	// will be forced into a full rebuild. A stream that sizes the log with
	// WithChangeLogCap should keep this at zero.
	LogOverflows atomic.Int64
	// Compactions counts threshold-triggered tombstone compactions (row-id
	// remaps published to derived caches).
	Compactions atomic.Int64
	// JoinRepairs counts join existence-vector/CSR patches applied from the
	// change log instead of an O(n) rebuild.
	JoinRepairs atomic.Int64
	// JoinRebuilds counts full join-plumbing rebuilds: first builds plus
	// the loud fallbacks (log overflow, oversized patch set, compaction).
	JoinRebuilds atomic.Int64
}

// StoreSnapshot is a plain-value copy of the counters for JSON records.
type StoreSnapshot struct {
	LogOverflows int64 `json:"log_overflows"`
	Compactions  int64 `json:"compactions"`
	JoinRepairs  int64 `json:"join_repairs"`
	JoinRebuilds int64 `json:"join_rebuilds"`
}

// Snapshot reads every counter once (individually atomic, collectively
// approximate under concurrent writers).
func (c *StoreCounters) Snapshot() StoreSnapshot {
	return StoreSnapshot{
		LogOverflows: c.LogOverflows.Load(),
		Compactions:  c.Compactions.Load(),
		JoinRepairs:  c.JoinRepairs.Load(),
		JoinRebuilds: c.JoinRebuilds.Load(),
	}
}

// TableGauges is one table's storage state as exact counts: the per-table
// fields of the serving tier's /metrics store group.
type TableGauges struct {
	Name string
	// Rows is the physical row count, tombstoned rows included; Dead is
	// the tombstoned part of it.
	Rows, Dead int
	// IndexKeys and IndexPostings sum the distinct keys and the
	// posting-list lengths over the table's hash indexes; postings include
	// the tombstoned ids lazy deletion leaves behind.
	IndexKeys, IndexPostings int
	// ChangeLog is the number of change-log entries retained.
	ChangeLog int
}

// Gauges reads every table's TableGauges, in creation order. Each table is
// read under its shared state lock, so its counts describe one committed
// epoch.
func (db *DB) Gauges() []TableGauges {
	db.mu.RLock()
	tables := make([]*Table, len(db.order))
	for i, name := range db.order {
		tables[i] = db.tables[name]
	}
	db.mu.RUnlock()
	out := make([]TableGauges, len(tables))
	for i, t := range tables {
		t.state.RLock()
		g := TableGauges{Name: t.schema.Name, Rows: t.n, Dead: t.nDead, ChangeLog: len(t.chLog)}
		t.mu.RLock()
		for _, idx := range t.indexes {
			keys, postings := idx.size()
			g.IndexKeys += keys
			g.IndexPostings += postings
		}
		t.mu.RUnlock()
		t.state.RUnlock()
		out[i] = g
	}
	return out
}
