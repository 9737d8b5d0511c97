// Package relstore is an in-memory relational engine standing in for the
// MySQL instance the dissertation used. It supports exactly the query
// surface the HYPRE algorithms need: typed tables, hash indexes, selection
// with arbitrary predicate trees, one equi-join (dblp ⋈ dblp_author), LIMIT,
// and COUNT(DISTINCT col). Query answers are tuple sets and counts, which is
// all the preference-combination algorithms consume, so the engine swap
// preserves their behaviour.
//
// Storage is columnar: each table keeps one typed vector per attribute
// (int64/float64 payload words, dictionary-encoded strings with an
// adaptive raw-storage fallback for high-cardinality columns) with
// per-block min/max zone maps, and predicates compile to vectorized
// kernels that evaluate a whole block per step into selection bitmaps
// (see vecscan.go). The row-oriented API (Row, Value, Select) reboxes
// values on demand.
//
// Every read is one row selection plus a fold (query.go): selectLocked
// computes the live left rows that have a matching partner pair,
// optionally restricted to a row mask — the drained block plan when the
// WHERE allows it, a compiled per-row loop otherwise. ScanAttrRowSet folds
// it into a row set with a spill of the rows past a split; MatchLeftRowSet
// is it restricted to the rows a mutation batch touched; Select, Count and
// DistinctValues walk each selected row's live partners that pass the
// per-pair filter, in ascending left-row order.
//
// Equality lookups and joins go through per-column hash indexes
// (index.go), built by BuildIndex or on first use: integer keys (integral floats folded onto
// them) map to int32 row-id posting lists in a map keyed by the bare
// int64, every other key in a map keyed by the Value. An index grows with
// its column's distinct keys, not its row count, and a lookup hands out
// the posting list itself, uncopied.
//
// The store is mutable and serves online workloads: every write is a
// Batch commit (one hold of the touched tables, atomic across them),
// Delete tombstones, Update overwrites in place (rebuilding the touched
// block's zone map exactly), scans and commits interleave safely under a
// reader/writer epoch discipline, and every committed mutation lands in a
// bounded per-table change log with pre-images so derived caches can be
// repaired incrementally (MatchLeftRowSet + internal/delta) instead of
// rematerialized. See batch.go and mutate.go for the write-path contract.
package relstore

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"hypre/internal/bitset"
	"hypre/internal/predicate"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind predicate.Kind
}

// Schema describes a relation: its name and ordered columns.
type Schema struct {
	Name    string
	Columns []Column
}

// Arity returns the number of columns, matching Table 10's "Arity" column.
func (s *Schema) Arity() int { return len(s.Columns) }

// Table holds the rows of one relation as typed column vectors plus optional
// hash indexes, one per indexed column: key → int32 row ids, with int64
// keys and Value keys in separate maps sized by the distinct keys
// (hashIndex, index.go). The store is mutable: Insert appends, Update
// overwrites in place, Delete tombstones (row ids are stable until a
// compaction; see mutate.go for the update path, snapshot semantics, and
// the change log, and compact.go for the remap).
//
// Concurrency: every commit (Batch.Commit) takes the state locks of the
// tables it touches exclusively; every scan holds them shared for the
// scan's full duration. Both acquire multi-table locks in creation (seq)
// order, so readers and writers can never deadlock. A scan therefore
// observes one consistent epoch of each table it touches — commits wait
// for in-flight readers and advance the epoch atomically. Lazy structures
// (indexes, the join-existence vectors) are built under mu, nested inside
// the state lock, and rebuilt when the epoch they were built at goes stale.
type Table struct {
	schema *Schema
	colIdx map[string]int // bare column name -> position
	cols   []*column
	n      int // physical row count, tombstoned rows included

	seq     uint64       // creation ticket; canonical shared-lock order
	state   sync.RWMutex // data lock: mutations exclusive, whole scans shared
	nPublic atomic.Int64 // committed row count; lock-free Len for any caller
	dead    *bitset.Set  // tombstone mask (compressed; mutated under state lock)
	nDead   int

	chLog    []RowChange // committed mutations, ascending epoch (mutate.go)
	logFloor uint64      // epochs <= logFloor have been trimmed from chLog

	cfg   dbConfig     // write-path knobs, fixed at creation (NewDB options)
	batch *applyBatch  // the open commit's context (batch.go); set only while state is held
	comps []Compaction // recent row-id remaps, ascending epoch (compact.go)
	// compactFloor is the newest evicted compaction epoch: consumers whose
	// sync point is <= compactFloor can no longer learn which remaps they
	// missed and must rebuild.
	compactFloor uint64

	mu      sync.RWMutex
	gen     uint64             // epoch: bumped once per commit touching the table; invalidates caches
	indexes map[int]*hashIndex // column position -> key -> int32 row ids (index.go)
	exists  map[existsKey]*existsEntry
}

// existsKey identifies a cached join-existence vector: which right table and
// which (left, right) join columns it was computed for.
type existsKey struct {
	right    *Table
	leftPos  int
	rightPos int
}

// existsEntry caches the join plumbing for one (left, right, columns)
// combination: the join-existence selection (lid set when the left row has
// at least one partner in the right table — compressed, and usually
// run-encoded since most rows have partners) and the right-row → left-rows
// mapping in CSR form. It is the only way a scan admits join rows: a scan
// ANDs the existence selection into each block, or stitches right
// selections back to left rows with two array reads. Generations of both
// tables at build time detect staleness. Entries are immutable once
// published (repairs and rebuilds swap in a fresh entry), so results may
// alias the selection's containers copy-on-write.
//
// Staleness is healed incrementally when the change logs still cover the
// gap: a repair clones the selection COW, recomputes only the touched rows,
// and overlays replacement partner lists in patched, leaving the base CSR
// arrays shared with the previous entry. partners() is the one read path.
// Partner lists may retain tombstoned lids (consumers filter liveness
// downstream), and lists of dead rids are never consulted — which is what
// keeps the repair's touched set proportional to the change log, not n.
type existsEntry struct {
	sel     *bitset.Set
	off     []int32 // len right.n+1 at build; lids[off[rid]:off[rid+1]] = left partners
	lids    []int32
	patched map[int32][]int32 // rid -> replacement partner list (nil = no partners)
	lgen    uint64
	rgen    uint64
}

// partners returns the left partner rows of right row rid: the patched
// overlay when the row was touched since the base CSR was built, the CSR
// slice otherwise. Rows appended after the base build have no CSR slot and
// live only in the overlay.
func (e *existsEntry) partners(rid int) []int32 {
	if e.patched != nil {
		if p, ok := e.patched[int32(rid)]; ok {
			return p
		}
	}
	if rid >= 0 && rid+1 < len(e.off) {
		return e.lids[e.off[rid]:e.off[rid+1]]
	}
	return nil
}

// indexKey canonicalizes a value for hash-index and DISTINCT keying:
// integral floats collapse to ints so Int(3) and Float(3) collide, matching
// Value.Equal's widening semantics (and what Value.Key encoded as a
// string). Keying by the Value itself avoids the per-row string allocation
// Key() cost on every insert, index build, and join probe.
func indexKey(v predicate.Value) predicate.Value {
	if v.Kind() == predicate.KindFloat {
		f := v.AsFloat()
		if f == float64(int64(f)) {
			return predicate.Int(int64(f))
		}
	}
	return v
}

// tableSeq hands out creation tickets for the canonical lock order.
var tableSeq atomic.Uint64

func newTable(s *Schema, cfg dbConfig) *Table {
	ci := make(map[string]int, len(s.Columns))
	cols := make([]*column, len(s.Columns))
	for i, c := range s.Columns {
		ci[c.Name] = i
		cols[i] = &column{}
	}
	return &Table{schema: s, colIdx: ci, cols: cols, dead: bitset.New(),
		seq: tableSeq.Add(1), indexes: make(map[int]*hashIndex), cfg: cfg}
}

// Len returns the number of physical rows, tombstoned rows included — the
// valid row-id range is always [0, Len). Use Live for the result-visible
// cardinality. Len is lock-free (safe under or outside the scan locks);
// concurrent inserts make it a momentarily-stale lower bound.
func (t *Table) Len() int { return int(t.nPublic.Load()) }

// Live returns the number of rows that are not tombstoned (Table 10's
// "Cardinality").
func (t *Table) Live() int {
	t.state.RLock()
	defer t.state.RUnlock()
	return t.n - t.nDead
}

// ColumnIndex resolves a bare column name to its position, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// Insert appends a row. The value count must match the schema arity; values
// are stored as given (the engine trusts callers on types, like MySQL in
// non-strict mode). Safe to call concurrently with scans: the insert is a
// one-mutation Batch, which waits for in-flight readers and commits
// atomically.
func (t *Table) Insert(vals ...predicate.Value) (int, error) {
	if len(vals) != len(t.schema.Columns) {
		return 0, fmt.Errorf("relstore: %s expects %d values, got %d",
			t.schema.Name, len(t.schema.Columns), len(vals))
	}
	var id int
	t.commitOne(func() { id = t.insertLocked(vals) })
	return id, nil
}

func (t *Table) insertLocked(vals []predicate.Value) int {
	id := t.n
	for i, v := range vals {
		t.cols[i].append(v)
	}
	t.n++
	t.nPublic.Store(int64(t.n))
	epoch := t.commitEpochLocked(func() {
		for col, idx := range t.indexes {
			idx.add(t.cols[col].value(id), id)
		}
	})
	t.logChange(RowChange{Epoch: epoch, Row: id, Kind: ChangeInsert})
	return id
}

// BuildIndex creates (or rebuilds) a hash index on the named column.
func (t *Table) BuildIndex(col string) error {
	pos, ok := t.colIdx[col]
	if !ok {
		return fmt.Errorf("relstore: %s has no column %q", t.schema.Name, col)
	}
	t.state.RLock()
	defer t.state.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buildIndexLocked(pos)
	return nil
}

// buildIndexLocked builds the index over live rows only; deleted ids linger
// in existing buckets (lazy repair) but fresh builds never include them.
// Callers hold t.state at least shared and t.mu exclusively.
func (t *Table) buildIndexLocked(pos int) *hashIndex {
	idx := newHashIndex()
	c := t.cols[pos]
	for id := 0; id < t.n; id++ {
		if !t.isDead(id) {
			idx.add(c.value(id), id)
		}
	}
	t.indexes[pos] = idx
	return idx
}

// indexFor returns the hash index on column pos if one exists. The returned
// map is safe to read while the caller holds t.state at least shared:
// commits repair indexes only under the exclusive state lock.
func (t *Table) indexFor(pos int) (*hashIndex, bool) {
	t.mu.RLock()
	idx, ok := t.indexes[pos]
	t.mu.RUnlock()
	return idx, ok
}

// ensureIndex returns the hash index on pos, building it if missing.
func (t *Table) ensureIndex(pos int) *hashIndex {
	if idx, ok := t.indexFor(pos); ok {
		return idx
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx, ok := t.indexes[pos]; ok {
		return idx
	}
	return t.buildIndexLocked(pos)
}

// lookup returns row ids whose column equals v, using the index when
// present; found reports whether an index existed. ids is the index's own
// posting list (tombstoned ids included), read-only to the caller.
func (t *Table) lookup(pos int, v predicate.Value) (ids []int32, found bool) {
	idx, ok := t.indexFor(pos)
	if !ok {
		return nil, false
	}
	return idx.rows(v), true
}

// joinEntry returns the cached join plumbing (existence vector + right→left
// CSR), healing it when either table's epoch moved: an incremental repair
// from the change logs when they still cover the gap (joinrepair.go), a
// full O(n) rebuild as the loud fallback (log overflow, compaction, or an
// oversized patch set). Tombstoned rows on either side are excluded from
// fresh builds. Callers hold the state locks of both tables at least
// shared.
func (t *Table) joinEntry(right *Table, leftPos, rightPos int) *existsEntry {
	key := existsKey{right: right, leftPos: leftPos, rightPos: rightPos}
	t.mu.RLock()
	e, ok := t.exists[key]
	lgen := t.gen
	t.mu.RUnlock()
	right.mu.RLock()
	rgen := right.gen
	right.mu.RUnlock()
	if ok && e.lgen == lgen && e.rgen == rgen {
		return e
	}
	if ok {
		if ne := t.repairJoinEntry(e, right, leftPos, rightPos, lgen, rgen); ne != nil {
			t.mu.Lock()
			if t.exists == nil {
				t.exists = make(map[existsKey]*existsEntry)
			}
			t.exists[key] = ne
			t.mu.Unlock()
			if sc := t.cfg.counters; sc != nil {
				sc.JoinRepairs.Add(1)
			}
			return ne
		}
	}
	if sc := t.cfg.counters; sc != nil {
		sc.JoinRebuilds.Add(1)
	}

	// Build outside t.mu using only read paths, then publish.
	lidx := t.ensureIndex(leftPos)
	sel := bitset.New()
	off := make([]int32, right.n+1)
	var lids []int32
	rc := right.cols[rightPos]
	for rid := 0; rid < right.n; rid++ {
		if !right.isDead(rid) {
			for _, lid := range lidx.rows(rc.value(rid)) {
				if t.isDead(int(lid)) {
					continue
				}
				sel.Add(int(lid))
				lids = append(lids, lid)
			}
		}
		off[rid+1] = int32(len(lids))
	}
	// Most left rows have at least one partner, so the selection is
	// range-shaped: one re-encoding pass usually collapses it to runs.
	sel.Optimize()
	e = &existsEntry{sel: sel, off: off, lids: lids, lgen: lgen, rgen: rgen}
	t.mu.Lock()
	if t.exists == nil {
		t.exists = make(map[existsKey]*existsEntry)
	}
	t.exists[key] = e
	t.mu.Unlock()
	return e
}

// Row returns a predicate.Row view of row id.
func (t *Table) Row(id int) RowRef { return RowRef{t: t, id: id} }

// Value returns the raw value at (row, bare column), or NULL. Tombstoned
// rows still answer (their payloads stay in the vectors); check Alive when
// liveness matters. Value takes the state lock shared, so it is safe
// against concurrent mutations (each call reads one committed epoch).
func (t *Table) Value(id int, col string) predicate.Value {
	pos, ok := t.colIdx[col]
	if !ok || id < 0 {
		return predicate.Null()
	}
	t.state.RLock()
	defer t.state.RUnlock()
	if id >= t.n {
		return predicate.Null()
	}
	return t.cols[pos].value(id)
}

// RowRef is a single-table row view implementing predicate.Row. Attribute
// lookups accept both "col" and "table.col".
type RowRef struct {
	t  *Table
	id int
}

// Get implements predicate.Row.
func (r RowRef) Get(attr string) (predicate.Value, bool) {
	name := attr
	if tbl, col, ok := splitQualified(attr); ok {
		if tbl != r.t.schema.Name {
			return predicate.Null(), false
		}
		name = col
	}
	pos, ok := r.t.colIdx[name]
	if !ok {
		return predicate.Null(), false
	}
	return r.t.cols[pos].value(r.id), true
}

func splitQualified(attr string) (table, col string, ok bool) {
	for i := len(attr) - 1; i >= 0; i-- {
		if attr[i] == '.' {
			return attr[:i], attr[i+1:], true
		}
	}
	return "", attr, false
}

// DB is a set of named tables. It is safe for concurrent reads after the
// load phase; writes take the mutex.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	order  []string
	cfg    dbConfig
}

// dbConfig holds the write-path knobs shared by every table of a DB, fixed
// at NewDB time.
type dbConfig struct {
	logCap      int     // change-log capacity; 0 means maxChangeLog
	compactFrac float64 // dead-row fraction triggering compaction; 0 disables
	counters    *StoreCounters
}

// DBOption configures the write path of a new DB.
type DBOption func(*dbConfig)

// WithChangeLogCap sets the per-table change-log capacity (entries). Streams
// should size this to cover at least one maintenance interval of mutations,
// or delta consumers hit the trim point and pay full rebuilds. n <= 0 keeps
// the default.
func WithChangeLogCap(n int) DBOption {
	return func(c *dbConfig) {
		if n > 0 {
			c.logCap = n
		}
	}
}

// WithGroupCommit is a no-op kept only because bench/setup.go, which is
// frozen, still passes it. Every store commits through Batch.Commit, one
// hold per commit; there is no queue to turn on. internal/lint's
// unused.txt marks it bench-only, so a caller outside bench/ fails the
// tests.
func WithGroupCommit(bool) DBOption {
	return func(*dbConfig) {}
}

// WithCompaction enables threshold-triggered tombstone compaction: when a
// commit leaves a table's dead-row fraction at or above frac (and the table
// has at least a block of rows), the columnar vectors are compacted and a
// row-id remap is published through the epoch gate (CompactionsSince) for
// derived caches to apply. frac <= 0 disables (the default: row ids are
// then stable forever, the pre-PR9 contract).
func WithCompaction(frac float64) DBOption {
	return func(c *dbConfig) { c.compactFrac = frac }
}

// WithStoreCounters attaches write-path counters (log overflows,
// compactions, join repairs vs rebuilds) to every table of the DB.
func WithStoreCounters(sc *StoreCounters) DBOption {
	return func(c *dbConfig) { c.counters = sc }
}

// NewDB returns an empty database.
func NewDB(opts ...DBOption) *DB {
	db := &DB{tables: make(map[string]*Table)}
	for _, o := range opts {
		o(&db.cfg)
	}
	return db
}

// CreateTable registers a new relation and returns it. It may run beside
// committing writers: a commit locks only the tables its batch staged.
func (db *DB) CreateTable(name string, cols ...Column) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("relstore: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("relstore: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("relstore: duplicate column %q in %q", c.Name, name)
		}
		seen[c.Name] = true
	}
	t := newTable(&Schema{Name: name, Columns: cols}, db.cfg)
	db.tables[name] = t
	db.order = append(db.order, name)
	return t, nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// TableStat is one row of the Table-10-style statistics report.
type TableStat struct {
	Name        string
	Arity       int
	Cardinality int
}

// Stats returns per-table arity and cardinality, sorted by table name, the
// data behind Table 10.
func (db *DB) Stats() []TableStat {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]TableStat, 0, len(db.tables))
	for name, t := range db.tables {
		out = append(out, TableStat{Name: name, Arity: t.schema.Arity(), Cardinality: t.Live()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
