package combine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// Evaluator answers combination queries. It materializes the distinct
// tuple-id set of each atomic preference once (one vectorized relational
// scan per predicate, like the pre-computed table of §5.5) as a dense
// bitmap keyed by a shared pid dictionary (the sorted IntSet view is
// derived lazily), and evaluates a Combo with word-parallel set algebra:
// union within an OR group, intersection across AND groups. Bulk
// materialization (MaterializeAll) fans the per-predicate scans out over a
// worker pool; dense dictionary ids are then assigned serially in
// first-seen order, so bitmaps stay as compact as serial materialization
// produced. Results are exactly those of running the rewritten SQL query —
// verified by tests against the relational engine — but pair/chain
// enumeration no longer re-scans the store.
//
// Concurrency: the predicate caches are guarded by a mutex, so once every
// profile preference has been materialized (see MaterializeAll), PredSet,
// PredBitmap, and the bitmap algebra they feed are safe for concurrent
// readers — the parallel pair-table build relies on this. The Queries and
// ComboEvals counters are plain ints and must only be touched from one
// goroutine at a time; the concurrent paths avoid them.
type Evaluator struct {
	db      *relstore.DB
	base    func(predicate.Predicate) relstore.Query
	keyAttr string

	mu     sync.RWMutex
	dict   *PidDict
	sets   map[string]IntSet
	bits   map[string]*Bitmap
	preds  map[string]hypre.ScoredPred // AST of every cached predicate, for delta re-evaluation
	seeded bool                        // scan plumbing (pidByRow, join structures) built
	// rowDense maps base-table row id -> dense dict index, assigned lazily
	// in first-seen order (-1 = not assigned yet), so dense numbering stays
	// as compact as serial materialization while scans set bits with one
	// array read instead of a pid hash.
	rowDense []int32
	// pidByRow caches the key attribute per base-table row, so dense-id
	// assignment during bitmap conversion never re-reads the store.
	pidByRow []int64
	// seedFrom is the base table the row plumbing was built against; a base
	// closure that routes a predicate to a different From table bypasses
	// the row remap (its row ids would index the wrong pidByRow).
	seedFrom string

	// Queries counts predicate materializations that had to touch the
	// store (cache misses) plus explicit SQL-path queries (CountSQL), for
	// the efficiency experiments. One-time scan plumbing (seedLocked's
	// universe pass) is not counted, keeping the figure comparable to the
	// one-query-per-predicate accounting of earlier PRs.
	Queries int
	// ComboEvals counts combination evaluations (set-algebra operations).
	ComboEvals int

	// Workers caps the fan-out of every sharded stage driven through this
	// evaluator (bulk materialization, the pair-table span sweep, the
	// class-word-range PEPS fan-out, delta refresh); 0 means GOMAXPROCS. It
	// must be set before the concurrent phases start and is read-only
	// thereafter. Only tests set it (to pin serial and wide runs against
	// each other); every binary runs at GOMAXPROCS.
	Workers int
}

// workerTarget is the configured fan-out width: ev.Workers, defaulting to
// GOMAXPROCS.
func (ev *Evaluator) workerTarget() int {
	if ev.Workers > 0 {
		return ev.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// workerCount clamps the configured fan-out to the number of independent
// work items of one stage.
func (ev *Evaluator) workerCount(items int) int {
	w := ev.workerTarget()
	if w > items {
		w = items
	}
	if w < 1 {
		w = 1
	}
	return w
}

// NewEvaluator builds an evaluator over a store. base maps a WHERE
// predicate to the full query (typically workload.BaseQuery); keyAttr is
// the distinct-counted attribute ("dblp.pid").
func NewEvaluator(db *relstore.DB, base func(predicate.Predicate) relstore.Query, keyAttr string) *Evaluator {
	return &Evaluator{
		db:      db,
		base:    base,
		keyAttr: keyAttr,
		dict:    NewPidDict(),
		sets:    make(map[string]IntSet),
		bits:    make(map[string]*Bitmap),
		preds:   make(map[string]hypre.ScoredPred),
	}
}

// Dict exposes the dense pid dictionary shared by every bitmap the
// evaluator hands out.
func (ev *Evaluator) Dict() *PidDict { return ev.dict }

// DB exposes the underlying store (the delta maintainer reads epochs and
// change logs from it).
func (ev *Evaluator) DB() *relstore.DB { return ev.db }

// BaseQuery maps a WHERE predicate to the evaluator's full query shape.
func (ev *Evaluator) BaseQuery(p predicate.Predicate) relstore.Query { return ev.base(p) }

// KeyAttr returns the distinct-counted attribute every materialization
// projects ("dblp.pid").
func (ev *Evaluator) KeyAttr() string { return ev.keyAttr }

// MaterializeAll bulk-materializes every uncached preference of a profile:
// the uncached predicates are partitioned across a worker pool, each scanned
// by relstore's ScanAttrRowSet into a row-selection bitmap (no
// intermediate id slices, no per-row predicate interpretation), then a
// serial conversion pass assigns dense dictionary ids lazily in first-seen
// order — so dense numbering stays exactly as compact and deterministic as
// the serial materialization it replaces. The sorted IntSet views are
// derived lazily by PredSet.
func (ev *Evaluator) MaterializeAll(prefs []hypre.ScoredPred) error {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	pending := make([]hypre.ScoredPred, 0, len(prefs))
	seen := make(map[string]bool, len(prefs))
	for _, p := range prefs {
		if _, ok := ev.bits[p.Pred]; ok || seen[p.Pred] {
			continue
		}
		seen[p.Pred] = true
		pending = append(pending, p)
	}
	if len(pending) == 0 {
		return nil
	}
	if err := ev.seedLocked(); err != nil {
		return err
	}
	if len(pending) == 1 {
		b, err := ev.scanBitmapLocked(pending[0])
		if err != nil {
			return err
		}
		ev.bits[pending[0].Pred] = b
		ev.preds[pending[0].Pred] = pending[0]
		ev.Queries++
		return nil
	}

	// Parallel phase: workers only read the store — no dict access at all.
	// Each produces the selection set of matching base-table rows; pids
	// the row scan cannot place (non-left key attributes) are collected and
	// folded in serially.
	type result struct {
		sel      *bitset.Set
		leftover []int64
	}
	results := make([]result, len(pending))
	errs := make([]error, len(pending))
	workers := ev.workerCount(len(pending))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				results[i].sel, results[i].leftover, errs[i] = ev.scanSel(pending[i])
			}
		}()
	}
	wg.Wait()
	for i := range pending {
		if errs[i] != nil {
			return errs[i]
		}
	}

	// Serial conversion: row selections become dense bitmaps, assigning
	// dictionary slots on first sight in pending order.
	for i, p := range pending {
		ev.bits[p.Pred] = ev.convertLocked(results[i].sel, results[i].leftover)
		ev.preds[p.Pred] = p
		ev.Queries++
	}
	return nil
}

// seedLocked builds the one-time scan plumbing: the store's join access
// structures, a presized dictionary index, the row→dense remap (all
// unassigned), and the per-row key attribute cache used to assign dense ids
// without re-reading the store.
func (ev *Evaluator) seedLocked() error {
	if ev.seeded {
		return nil
	}
	base := ev.base(predicate.True{})
	if err := ev.db.PrepareQuery(base); err != nil {
		return err
	}
	// PrepareQuery has already errored on an unknown base table.
	n := ev.db.Table(base.From).Len()
	ev.seedFrom = base.From
	ev.dict.Reserve(n)
	ev.rowDense = make([]int32, n)
	for i := range ev.rowDense {
		ev.rowDense[i] = -1
	}
	ev.pidByRow = make([]int64, n)
	// The per-row key cache is read joinless so it covers every base-table
	// row — a base closure that varies the join per predicate can still
	// select rows the seeded join shape would have excluded.
	seedQ := relstore.Query{From: base.From, Where: predicate.True{}}
	if err := ev.db.ScanAttrRows(seedQ, ev.keyAttr, func(lid int, pid int64) {
		if lid < n {
			ev.pidByRow[lid] = pid
		}
	}); err != nil {
		// A key attribute the row scan cannot serve: leave the plumbing
		// empty; scans fall back to pid collection.
		ev.rowDense, ev.pidByRow = nil, nil
	}
	ev.seeded = true
	return nil
}

// convertLocked turns a base-row selection set (plus any stray pids) into a
// container-backed bitmap, assigning dictionary slots in first-seen order
// (the selection iterates ascending, exactly like the word walk it
// replaces). Dense ids accumulate in a word scratch and compress in one
// FromWords pass, so conversion costs word ops, not per-bit container
// inserts.
func (ev *Evaluator) convertLocked(sel *bitset.Set, leftover []int64) *Bitmap {
	// Upper bound on the dense ids this bitmap can touch: every id already
	// assigned plus one fresh slot per selected row and leftover pid.
	maxIDs := ev.dict.Size() + len(leftover)
	if sel != nil {
		maxIDs += sel.Len()
	}
	words := make([]uint64, (maxIDs+63)/64)
	if sel != nil {
		sel.ForEach(func(lid int) bool {
			di := ev.rowDense[lid]
			if di < 0 {
				di = int32(ev.dict.Add(ev.pidByRow[lid]))
				ev.rowDense[lid] = di
			}
			words[di>>6] |= 1 << (uint(di) & 63)
			return true
		})
	}
	for _, pid := range leftover {
		di := ev.dict.Add(pid)
		words[di>>6] |= 1 << (uint(di) & 63)
	}
	return wrapSet(bitset.FromWords(words))
}

// scanSel runs one predicate's scan into a base-row selection set plus any
// pids the row scan could not place. The row-set scan hands back the
// container bitmap the store produced — no per-row emission, no
// recompression; a different base table than the seeded plumbing, or a key
// attribute the row scan cannot serve, collects raw pids instead. It reads
// only the store and fields frozen by seedLocked, so MaterializeAll workers
// may call it concurrently.
func (ev *Evaluator) scanSel(p hypre.ScoredPred) (sel *bitset.Set, leftover []int64, err error) {
	q := ev.base(p.P)
	if q.From == ev.seedFrom && len(ev.rowDense) > 0 {
		// Rows inserted after the seed have no cached pid; the scan spills
		// their key values under its own lock (one consistent epoch) while
		// the selection keeps only the plumbed rows.
		sel, err := ev.db.ScanAttrRowSet(q, ev.keyAttr, len(ev.rowDense), func(_ int, pid int64) {
			leftover = append(leftover, pid)
		})
		if err == nil {
			return sel, leftover, nil
		}
		leftover = nil
	}
	err = ev.db.ScanAttrInts(q, ev.keyAttr, func(pid int64) {
		leftover = append(leftover, pid)
	})
	return nil, leftover, err
}

// scanBitmapLocked runs one predicate's scan into a fresh dense bitmap.
func (ev *Evaluator) scanBitmapLocked(p hypre.ScoredPred) (*Bitmap, error) {
	sel, leftover, err := ev.scanSel(p)
	if err != nil {
		return nil, err
	}
	return ev.convertLocked(sel, leftover), nil
}

// PredSet returns the distinct tuple ids matching one preference as a
// sorted slice. The slice view is derived lazily from the cached bitmap, so
// bulk materialization never pays for sets nobody reads.
func (ev *Evaluator) PredSet(p hypre.ScoredPred) (IntSet, error) {
	ev.mu.RLock()
	s, ok := ev.sets[p.Pred]
	ev.mu.RUnlock()
	if ok {
		return s, nil
	}
	b, err := ev.PredBitmap(p)
	if err != nil {
		return nil, err
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if s, ok := ev.sets[p.Pred]; ok {
		return s, nil
	}
	s = b.ToIntSet(ev.dict)
	ev.sets[p.Pred] = s
	return s, nil
}

// PredBitmap returns the distinct tuple ids matching one preference in
// dense-bitmap form, materializing and caching it on first use via the
// vectorized scan.
func (ev *Evaluator) PredBitmap(p hypre.ScoredPred) (*Bitmap, error) {
	ev.mu.RLock()
	b, ok := ev.bits[p.Pred]
	ev.mu.RUnlock()
	if ok {
		return b, nil
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if b, ok := ev.bits[p.Pred]; ok {
		return b, nil
	}
	if err := ev.seedLocked(); err != nil {
		return nil, err
	}
	b, err := ev.scanBitmapLocked(p)
	if err != nil {
		return nil, err
	}
	ev.bits[p.Pred] = b
	ev.preds[p.Pred] = p
	ev.Queries++
	return b, nil
}

// CachedCount reports how many of prefs already have a cached bitmap — the
// cost signal the one-shot entry point uses to route between the
// materialized path (warm cache: O(result) random access) and the streaming
// scan (cold: every bitmap would cost a full materialization first).
func (ev *Evaluator) CachedCount(prefs []hypre.ScoredPred) int {
	ev.mu.RLock()
	defer ev.mu.RUnlock()
	n := 0
	for _, p := range prefs {
		if _, ok := ev.bits[p.Pred]; ok {
			n++
		}
	}
	return n
}

// groupBitmap folds one OR group to its union. Single-member groups (the
// common case: every pure AND combination) return the cached predicate
// bitmap itself — safe because bitmap operations never mutate operands.
func (ev *Evaluator) groupBitmap(g []hypre.ScoredPred) (*Bitmap, error) {
	b, err := ev.PredBitmap(g[0])
	if err != nil {
		return nil, err
	}
	for _, p := range g[1:] {
		nb, err := ev.PredBitmap(p)
		if err != nil {
			return nil, err
		}
		b = b.Or(nb)
	}
	return b, nil
}

// comboBitmap evaluates a combination to its dense tuple-id bitmap:
// union within OR groups, intersection across AND groups, with an early
// exit once the running intersection empties. It does not touch the work
// counters, so concurrent readers may use it after materialization.
func (ev *Evaluator) comboBitmap(c Combo) (*Bitmap, error) {
	var acc *Bitmap
	for _, g := range c.Groups {
		gb, err := ev.groupBitmap(g)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = gb
		} else {
			acc = acc.And(gb)
		}
		if acc.Len() == 0 {
			return NewBitmap(), nil
		}
	}
	if acc == nil {
		return NewBitmap(), nil
	}
	return acc, nil
}

// ComboSet evaluates a combination to its sorted tuple-id set.
func (ev *Evaluator) ComboSet(c Combo) (IntSet, error) {
	ev.ComboEvals++
	b, err := ev.comboBitmap(c)
	if err != nil {
		return nil, err
	}
	return b.ToIntSet(ev.dict), nil
}

// Count returns the number of distinct tuples the combination matches.
// For the ubiquitous two-group AND shape it popcounts the word-wise AND
// without materializing anything.
func (ev *Evaluator) Count(c Combo) (int, error) {
	ev.ComboEvals++
	if len(c.Groups) == 2 {
		a, err := ev.groupBitmap(c.Groups[0])
		if err != nil {
			return 0, err
		}
		b, err := ev.groupBitmap(c.Groups[1])
		if err != nil {
			return 0, err
		}
		return a.AndCard(b), nil
	}
	b, err := ev.comboBitmap(c)
	if err != nil {
		return 0, err
	}
	return b.Len(), nil
}

// Applicable reports whether the combination returns at least one tuple
// (Definition 15). The final intersection short-circuits on the first
// overlapping word.
func (ev *Evaluator) Applicable(c Combo) (bool, error) {
	ev.ComboEvals++
	n := len(c.Groups)
	if n == 0 {
		return false, nil
	}
	acc, err := ev.groupBitmap(c.Groups[0])
	if err != nil {
		return false, err
	}
	if n == 1 {
		return acc.Len() > 0, nil
	}
	for _, g := range c.Groups[1 : n-1] {
		gb, err := ev.groupBitmap(g)
		if err != nil {
			return false, err
		}
		acc = acc.And(gb)
		if acc.Len() == 0 {
			return false, nil
		}
	}
	last, err := ev.groupBitmap(c.Groups[n-1])
	if err != nil {
		return false, err
	}
	return acc.Any(last), nil
}

// Run evaluates the combination and produces its Record row.
func (ev *Evaluator) Run(c Combo) (Record, error) {
	ev.ComboEvals++
	b, err := ev.comboBitmap(c)
	if err != nil {
		return Record{}, err
	}
	return ev.record(c, b), nil
}

// record builds the Record row for an already-evaluated combination.
func (ev *Evaluator) record(c Combo, b *Bitmap) Record {
	return Record{
		NumPreds:  c.NumPreds(),
		NumTuples: b.Len(),
		Intensity: c.Intensity(),
		Combo:     c,
		Tuples:    b.ToIntSet(ev.dict),
	}
}

// CountSQL answers the same count through the relational engine without the
// set cache: one DISTINCT query per AND group, intersected in the client —
// used by tests to prove the set algebra agrees with the relational
// semantics, and by the ablation bench to price the cache.
//
// Note the per-group decomposition is semantically load-bearing: predicates
// on the same join attribute (aid=2 AND aid=6) must mean "tuples matched by
// both predicates" (papers the two authors co-authored, §7.3), which a flat
// single-join WHERE clause cannot express — one joined row carries one aid.
func (ev *Evaluator) CountSQL(c Combo) (int, error) {
	var acc IntSet
	first := true
	for _, g := range c.Groups {
		ps := make([]predicate.Predicate, len(g))
		for i, p := range g {
			ps[i] = p.P
		}
		ev.Queries++
		ids, err := ev.db.DistinctInts(ev.base(predicate.NewOr(ps...)), ev.keyAttr)
		if err != nil {
			return 0, err
		}
		gset := NewIntSet(ids)
		if first {
			acc, first = gset, false
		} else {
			acc = acc.Intersect(gset)
		}
		if len(acc) == 0 {
			return 0, nil
		}
	}
	if first {
		return 0, nil
	}
	return acc.Len(), nil
}
