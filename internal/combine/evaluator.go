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
// The bitmap cache is the serving tier's one predicate store: every
// predicate a served query names is materialized here once (PredIDs finds
// the missing ones, MaterializeAll scans them) and kept exact under writes
// by RefreshRowSetDelta, which hands the result cache the row delta its
// repair reads. Predicates are named by dense int32 ids interned on first
// sight and never reused, so an id stays valid across Invalidate.
//
// Concurrency: ev.mu guards the predicate store and the row plumbing. A
// refresh holds it exclusively across its re-match. MaterializeAll scans
// without it and stores its bitmaps only if no refresh, remap or
// invalidation ran meanwhile (gen held still), rescanning under the lock
// otherwise, so a predicate is either stored before a refresh re-matches it
// or scans a store state at least as new as the refresh's; a bitmap can
// never miss a batch. PredBitmap holds the lock across its one scan. Once
// every profile preference has been materialized, PredSet, PredBitmap, and
// the bitmap algebra they feed are safe for concurrent readers — the
// parallel pair-table build relies on this. The Queries and ComboEvals
// counters are plain ints and must only be touched from one goroutine at a
// time; the concurrent paths avoid them.
type Evaluator struct {
	db      *relstore.DB
	base    func(predicate.Predicate) relstore.Query
	keyAttr string

	mu   sync.RWMutex
	dict *PidDict
	// ids interns each predicate key to its id; preds and bits are indexed
	// by id. preds keeps the AST a refresh re-matches; bits[id] is nil
	// while the predicate is not resident.
	ids    map[string]int32
	preds  []hypre.ScoredPred
	bits   []*Bitmap
	sets   map[int32]IntSet
	seeded bool // scan plumbing (pidByRow, join structures) built
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
	// gen moves on every refresh, remap and invalidation: a materialization
	// that scanned without ev.mu stores its bitmaps only if gen held still.
	gen uint64

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
		ids:     make(map[string]int32),
		sets:    make(map[int32]IntSet),
	}
}

// internLocked returns p's id, assigning the next one on first sight.
// Caller holds ev.mu exclusively.
func (ev *Evaluator) internLocked(p hypre.ScoredPred) int32 {
	id, ok := ev.ids[p.Pred]
	if !ok {
		id = int32(len(ev.preds))
		ev.ids[p.Pred] = id
		ev.preds = append(ev.preds, p)
		ev.bits = append(ev.bits, nil)
	}
	return id
}

// residentLocked returns p's bitmap, or nil when p is not resident. Caller
// holds ev.mu.
func (ev *Evaluator) residentLocked(p hypre.ScoredPred) *Bitmap {
	if id, ok := ev.ids[p.Pred]; ok {
		return ev.bits[id]
	}
	return nil
}

// PredIDs interns every preference of a profile and returns their ids in
// profile order, plus the preferences that have no bitmap: the ones a
// caller must MaterializeAll before the store maintains them.
func (ev *Evaluator) PredIDs(prefs []hypre.ScoredPred) (ids []int32, missing []hypre.ScoredPred) {
	ids = make([]int32, len(prefs))
	ev.mu.Lock()
	defer ev.mu.Unlock()
	for i, p := range prefs {
		ids[i] = ev.internLocked(p)
		if ev.bits[ids[i]] == nil {
			missing = append(missing, p)
		}
	}
	return ids, missing
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
//
// The scans run without ev.mu, so concurrent materializations and refreshes
// proceed side by side. A refresh, remap or invalidation that lands
// mid-scan may have re-matched its batch before these predicates were
// resident, so their bitmaps are discarded and scanned once more with ev.mu
// held throughout, which a stream of writes cannot starve.
func (ev *Evaluator) MaterializeAll(prefs []hypre.ScoredPred) error {
	stored, err := ev.materialize(prefs, false)
	if err != nil || stored {
		return err
	}
	_, err = ev.materialize(prefs, true)
	return err
}

// materialize is one MaterializeAll attempt: hold says whether ev.mu stays
// held across the scans. stored is false only when hold is false and gen
// moved during the scans; nothing is stored then.
func (ev *Evaluator) materialize(prefs []hypre.ScoredPred, hold bool) (stored bool, err error) {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	pending := make([]hypre.ScoredPred, 0, len(prefs))
	seen := make(map[string]bool, len(prefs))
	for _, p := range prefs {
		if ev.residentLocked(p) != nil || seen[p.Pred] {
			continue
		}
		seen[p.Pred] = true
		pending = append(pending, p)
	}
	if len(pending) == 0 {
		return true, nil
	}
	if err := ev.seedLocked(); err != nil {
		return false, err
	}
	gen, from, plumbed := ev.gen, ev.seedFrom, len(ev.rowDense)
	var sels []scanned
	if hold {
		sels, err = ev.scanAll(pending, from, plumbed)
	} else {
		func() {
			ev.mu.Unlock()
			defer ev.mu.Lock()
			sels, err = ev.scanAll(pending, from, plumbed)
		}()
	}
	if err != nil {
		return false, err
	}
	if ev.gen != gen {
		return false, nil
	}
	// Serial conversion: row selections become dense bitmaps, assigning
	// dictionary slots on first sight in pending order. A predicate another
	// materialization stored meanwhile keeps its bitmap.
	for i, p := range pending {
		if ev.residentLocked(p) != nil {
			continue
		}
		ev.bits[ev.internLocked(p)] = ev.convertLocked(sels[i].sel, sels[i].leftover)
		ev.Queries++
	}
	return true, nil
}

// scanned is one predicate's scan result: the matching base-table rows
// below the plumbed prefix, plus the pids the row scan could not place.
type scanned struct {
	sel      *bitset.Set
	leftover []int64
}

// scanAll scans every pending predicate, fanning the scans over a worker
// pool. It reads only the store and the arguments, so it needs no lock.
func (ev *Evaluator) scanAll(pending []hypre.ScoredPred, from string, plumbed int) ([]scanned, error) {
	out := make([]scanned, len(pending))
	errs := make([]error, len(pending))
	if len(pending) == 1 {
		out[0].sel, out[0].leftover, errs[0] = ev.scanSel(pending[0], from, plumbed)
		return out, errs[0]
	}
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
				out[i].sel, out[i].leftover, errs[i] = ev.scanSel(pending[i], from, plumbed)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
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
// recompression; a different base table than from (the table the plumbing
// was seeded against), or a key attribute the row scan cannot serve,
// collects raw pids instead. plumbed is the plumbing's row count. It reads
// only the store and its arguments, so it may run without ev.mu.
func (ev *Evaluator) scanSel(p hypre.ScoredPred, from string, plumbed int) (sel *bitset.Set, leftover []int64, err error) {
	q := ev.base(p.P)
	if q.From == from && plumbed > 0 {
		// Rows inserted after the seed have no cached pid; the scan spills
		// their key values under its own lock (one consistent epoch) while
		// the selection keeps only the plumbed rows.
		sel, err := ev.db.ScanAttrRowSet(q, ev.keyAttr, plumbed, func(_ int, pid int64) {
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
	sel, leftover, err := ev.scanSel(p, ev.seedFrom, len(ev.rowDense))
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
	id, known := ev.ids[p.Pred]
	s, ok := ev.sets[id]
	ev.mu.RUnlock()
	if known && ok {
		return s, nil
	}
	b, err := ev.PredBitmap(p)
	if err != nil {
		return nil, err
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	id = ev.ids[p.Pred]
	if s, ok := ev.sets[id]; ok {
		return s, nil
	}
	s = b.ToIntSet(ev.dict)
	ev.sets[id] = s
	return s, nil
}

// PredBitmap returns the distinct tuple ids matching one preference in
// dense-bitmap form, materializing and caching it on first use via the
// vectorized scan.
func (ev *Evaluator) PredBitmap(p hypre.ScoredPred) (*Bitmap, error) {
	ev.mu.RLock()
	b := ev.residentLocked(p)
	ev.mu.RUnlock()
	if b != nil {
		return b, nil
	}
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if b := ev.residentLocked(p); b != nil {
		return b, nil
	}
	if err := ev.seedLocked(); err != nil {
		return nil, err
	}
	b, err := ev.scanBitmapLocked(p)
	if err != nil {
		return nil, err
	}
	ev.bits[ev.internLocked(p)] = b
	ev.Queries++
	return b, nil
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
