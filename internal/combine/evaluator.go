package combine

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// Evaluator answers combination queries. It materializes the distinct
// tuple-id set of each atomic preference once (one vectorized relational
// scan per predicate, like the pre-computed table of §5.5) as a compressed
// bitmap (bitset.Set) over a shared pid dictionary's dense ids, and
// evaluates a Combo with word-parallel set algebra: union within an OR
// group, intersection across AND groups. Bulk materialization (MaterializeAll) fans the per-predicate
// scans out over a worker pool; dense dictionary ids are then assigned
// serially in first-seen order, so bitmaps stay as compact as serial
// materialization produced. Results are exactly those of running the
// rewritten SQL query — verified by tests against the relational engine —
// but pair/chain enumeration no longer re-scans the store.
//
// The bitmap cache is the serving tier's one predicate store. Every
// predicate a served query names is materialized here once: MaterializeAll
// scans the ones a Resident snapshot lacks. RefreshRowSetDelta keeps them
// exact under writes and hands the result cache the row delta its repair
// reads. A cache miss ranks its answer from a Resident snapshot of them.
// Predicates are named by dense int32 ids, interned on first sight and never
// reused, so an id stays valid across Invalidate.
//
// Contract: every predicate's base query scans one base table, the one
// base(TRUE) names, and the key attribute binds to a column of it. A
// predicate is then materialized one way: relstore's row selection over
// that table, mapped through the row plumbing (base row → pid, base row →
// dense id). A base closure that routes a predicate elsewhere, or a key
// attribute that does not bind to the base table, makes MaterializeAll
// return an error and publish nothing.
//
// Concurrency: the readable store is one immutable version — the bitmaps by
// id and the dictionary's dense-id → pid prefix they index — behind an
// atomic pointer, and ids are interned in a sync.Map written once per key.
// Resident, MemStats and PredBitmap on a resident predicate are plain loads
// and take no lock; the bitmap algebra they feed is safe for concurrent
// readers, which the parallel pair-table build relies on. Writers follow
// one rule. A Sync's RefreshRowSetDelta, RemapRows and Invalidate hold
// refresh exclusively. A materialization holds its read side from plan to
// publish, so materializations scan side by side but never overlap a
// refresh: a predicate is either published before a refresh re-matches it,
// or scans a store state at least as new as the refresh's, and a bitmap
// never misses a batch. Seeding and the convert-and-publish step, which
// write the dictionary, the row plumbing and the interning table, run under
// pub, one materialization at a time. Each writer publishes a new version
// and never edits one a reader may hold. Dict and the Queries counter are
// not synchronized: read them only while nothing materializes or refreshes.
type Evaluator struct {
	db      *relstore.DB
	base    func(predicate.Predicate) relstore.Query
	keyAttr string
	from    string // the base table every predicate's query scans

	cur atomic.Pointer[version]
	// ids interns each predicate key to its int32 id; plans[id] is the plan
	// compiled from the predicate's base query, which every scan and every
	// refresh of the predicate runs for the evaluator's life.
	ids   sync.Map
	plans []*relstore.Plan

	refresh sync.RWMutex
	pub     sync.Mutex

	dict *PidDict
	// rowDense maps base-table row id -> dense dict index, assigned lazily
	// in first-seen order (-1 = not assigned yet), so dense numbering stays
	// as compact as serial materialization while scans set bits with one
	// array read instead of a dictionary lookup. Non-nil once seeded.
	rowDense []int32
	// pidByRow caches the key attribute per base-table row, so dense-id
	// assignment during bitmap conversion never re-reads the store.
	pidByRow []int64
	// plumbEpoch is the base-table epoch the row plumbing describes (read
	// at seed, moved by RemapRows): a row scan taken after a compaction
	// past it names rows the plumbing does not, so scanSel discards it.
	plumbEpoch uint64

	// Queries counts predicate materializations that had to touch the
	// store (cache misses) plus explicit SQL-path queries (CountSQL), for
	// the efficiency experiments. One-time scan plumbing (seedLocked's
	// universe pass) is not counted, keeping the figure comparable to the
	// one-query-per-predicate accounting of earlier PRs.
	Queries int

	// Workers caps the fan-out of every sharded stage driven through this
	// evaluator (bulk materialization, the pair-table span sweep, the
	// class-word-range PEPS fan-out, delta refresh); 0 means GOMAXPROCS. It
	// must be set before the concurrent phases start and is read-only
	// thereafter. Only tests set it (to pin serial and wide runs against
	// each other); every binary runs at GOMAXPROCS.
	Workers int
}

// version is one published state of the predicate store. Nothing writes
// it after it is published.
type version struct {
	// bits[id] is the predicate's set, nil while it is not resident; ids
	// interned after the version was published lie past its end.
	bits []*bitset.Set
	// pids is the dictionary's dense-id → pid table as published: a prefix
	// of an append-only slice, covering every id the bitmaps set.
	pids []int64
	// dictBytes is the dictionary's SizeBytes as published.
	dictBytes int64
}

// bit returns the set of id, nil when it is not resident.
func (v *version) bit(id int32) *bitset.Set {
	if id < 0 || int(id) >= len(v.bits) {
		return nil
	}
	return v.bits[id]
}

// anyResident reports whether some predicate is resident.
func (v *version) anyResident() bool {
	return slices.ContainsFunc(v.bits, func(b *bitset.Set) bool { return b != nil })
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
	return max(1, min(ev.workerTarget(), items))
}

// parallelFor runs fn(i) for every i in [0, n) on up to workers goroutines,
// each taking the next index from a shared counter, so uneven items balance
// across the pool. One worker or one item runs inline.
func parallelFor(workers, n int, fn func(i int)) {
	if workers = min(workers, n); workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// NewEvaluator builds an evaluator over a store. base maps a WHERE
// predicate to the full query (typically workload.BaseQuery); keyAttr is
// the distinct-counted attribute ("dblp.pid").
func NewEvaluator(db *relstore.DB, base func(predicate.Predicate) relstore.Query, keyAttr string) *Evaluator {
	ev := &Evaluator{db: db, base: base, keyAttr: keyAttr, from: base(predicate.True{}).From, dict: NewPidDict()}
	ev.cur.Store(&version{})
	return ev
}

// id returns p's interned id, or -1 when p was never interned.
func (ev *Evaluator) id(p hypre.ScoredPred) int32 {
	if id, ok := ev.ids.Load(p.Pred); ok {
		return id.(int32)
	}
	return -1
}

// internLocked returns p's id, assigning the next one, with plan, on
// first sight. Caller holds pub.
func (ev *Evaluator) internLocked(p hypre.ScoredPred, plan *relstore.Plan) int32 {
	id, loaded := ev.ids.LoadOrStore(p.Pred, int32(len(ev.plans)))
	if !loaded {
		ev.plans = append(ev.plans, plan)
	}
	return id.(int32)
}

// compile compiles p's base query, which must scan the base table. It
// reads only the store's schemas, so it needs no lock.
func (ev *Evaluator) compile(p hypre.ScoredPred) (*relstore.Plan, error) {
	q := ev.base(p.P)
	if q.From != ev.from {
		return nil, fmt.Errorf("combine: predicate %q scans table %q, not the base table %q", p.Pred, q.From, ev.from)
	}
	return ev.db.Compile(q)
}

// publishLocked publishes bits, with the dictionary as it stands, as the
// current version. Caller holds pub or refresh's write side.
func (ev *Evaluator) publishLocked(bits []*bitset.Set) *version {
	v := &version{bits: bits, pids: ev.dict.pids, dictBytes: ev.dict.SizeBytes()}
	ev.cur.Store(v)
	return v
}

// Resident is a profile's predicates as one version of the store held them:
// per preference its id (-1 when never interned) and bitmap (nil when not
// resident), plus the dictionary's dense-id → pid table, which covers every
// id those bitmaps set. Versions are never written once published, so the
// view stays exact whatever is published after it.
type Resident struct {
	IDs  []int32
	Bits []*bitset.Set
	PIDs []int64
}

// Resident snapshots the preferences from the current version, without a
// lock. ok reports that every one of them is resident.
func (ev *Evaluator) Resident(prefs []hypre.ScoredPred) (r Resident, ok bool) {
	v := ev.cur.Load()
	r = Resident{IDs: make([]int32, len(prefs)), Bits: make([]*bitset.Set, len(prefs)), PIDs: v.pids}
	ok = true
	for i, p := range prefs {
		r.IDs[i] = ev.id(p)
		r.Bits[i] = v.bit(r.IDs[i])
		ok = ok && r.Bits[i] != nil
	}
	return r, ok
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
// the serial materialization it replaces — and publishes one version
// holding them all. A profile already resident takes no lock.
func (ev *Evaluator) MaterializeAll(prefs []hypre.ScoredPred) error {
	_, err := ev.materialize(prefs)
	return err
}

// materialize is MaterializeAll returning a version that holds every
// preference.
func (ev *Evaluator) materialize(prefs []hypre.ScoredPred) (*version, error) {
	if v := ev.cur.Load(); ev.holds(v, prefs) {
		return v, nil
	}
	ev.refresh.RLock()
	defer ev.refresh.RUnlock()
	ev.pub.Lock()
	v := ev.cur.Load()
	pending := ev.pendingIn(v, prefs)
	// A predicate interned before (one Invalidate emptied) keeps its plan.
	plans := make([]*relstore.Plan, len(pending))
	for i, p := range pending {
		if id := ev.id(p); id >= 0 {
			plans[i] = ev.plans[id]
		}
	}
	var err error
	if len(pending) > 0 {
		err = ev.seedLocked()
	}
	plumbed, epoch := len(ev.rowDense), ev.plumbEpoch
	ev.pub.Unlock()
	if len(pending) == 0 || err != nil {
		return v, err
	}
	sels, err := ev.scanAll(pending, plans, plumbed, epoch)
	if err != nil {
		return nil, err
	}

	// Serial conversion: row selections become dense bitmaps, assigning
	// dictionary slots on first sight in pending order. A predicate another
	// materialization published meanwhile keeps its bitmap.
	ev.pub.Lock()
	defer ev.pub.Unlock()
	v = ev.cur.Load()
	ids := make([]int32, len(pending))
	inside := false
	for i, p := range pending {
		ids[i] = ev.internLocked(p, plans[i])
		inside = inside || int(ids[i]) < len(v.bits) && v.bits[ids[i]] == nil
	}
	bits := v.bits
	if inside {
		// An invalidated predicate's slot lies inside v, which must not
		// change: the next version gets a slice of its own.
		bits = slices.Clone(bits)
	}
	// Every other new id lies past v's end, where no published version
	// reads, so bits extends in place: a publish costs its new ids, not
	// every id.
	bits = append(bits, make([]*bitset.Set, len(ev.plans)-len(bits))...)
	for i, id := range ids {
		if bits[id] == nil {
			bits[id] = ev.convertLocked(sels[i].sel, sels[i].leftover)
			ev.Queries++
		}
	}
	return ev.publishLocked(bits), nil
}

// holds reports whether v holds every preference.
func (ev *Evaluator) holds(v *version, prefs []hypre.ScoredPred) bool {
	for _, p := range prefs {
		if v.bit(ev.id(p)) == nil {
			return false
		}
	}
	return true
}

// pendingIn returns the preferences v does not hold, each predicate once.
func (ev *Evaluator) pendingIn(v *version, prefs []hypre.ScoredPred) []hypre.ScoredPred {
	var pending []hypre.ScoredPred
	var seen map[string]bool
	for _, p := range prefs {
		if v.bit(ev.id(p)) != nil || seen[p.Pred] {
			continue
		}
		if seen == nil {
			seen = make(map[string]bool, len(prefs))
		}
		seen[p.Pred] = true
		pending = append(pending, p)
	}
	return pending
}

// scanned is one predicate's scan result: the matching base-table rows
// below the plumbed prefix, plus the pids the row scan could not place.
type scanned struct {
	sel      *bitset.Set
	leftover []int64
}

// scanAll scans every pending predicate, fanning the scans over a worker
// pool; a predicate without a plan is compiled first, into plans. It reads
// only the store and the arguments, so it needs no lock.
func (ev *Evaluator) scanAll(pending []hypre.ScoredPred, plans []*relstore.Plan, plumbed int, epoch uint64) ([]scanned, error) {
	out := make([]scanned, len(pending))
	errs := make([]error, len(pending))
	parallelFor(ev.workerTarget(), len(pending), func(i int) {
		if plans[i] == nil {
			if plans[i], errs[i] = ev.compile(pending[i]); errs[i] != nil {
				return
			}
		}
		out[i].sel, out[i].leftover, errs[i] = ev.scanSel(plans[i], plumbed, epoch)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// seedLocked builds the one-time scan plumbing: the store's join access
// structures, the dictionary's dense id table presized to the base table,
// the row→dense remap (all unassigned), and the per-row key attribute cache
// used to assign dense ids without re-reading the store. The key cache is
// one attr scan of the base table that spills every row, read joinless so
// it covers every row whatever join a predicate's query takes; a key
// attribute that does not bind to the base table fails it, and the
// materialization with it. Caller holds pub under refresh's read side.
func (ev *Evaluator) seedLocked() error {
	if ev.rowDense != nil {
		return nil
	}
	if err := ev.db.PrepareQuery(ev.base(predicate.True{})); err != nil {
		return err
	}
	// PrepareQuery has already errored on an unknown base table.
	tbl := ev.db.Table(ev.from)
	epoch := tbl.Epoch()
	n := tbl.Len()
	pidByRow := make([]int64, n)
	seed, err := ev.db.Compile(relstore.Query{From: ev.from})
	if err != nil {
		return err
	}
	if _, err := seed.ScanAttrRowSet(ev.keyAttr, 0, func(lid int, pid int64) {
		if lid < n {
			pidByRow[lid] = pid
		}
	}); err != nil {
		return err
	}
	ev.dict.Reserve(n)
	ev.rowDense = make([]int32, n)
	for i := range ev.rowDense {
		ev.rowDense[i] = -1
	}
	ev.pidByRow, ev.plumbEpoch = pidByRow, epoch
	return nil
}

// convertLocked turns a base-row selection set (plus any stray pids) into a
// set of dense ids, assigning dictionary slots in first-seen order
// (the selection iterates ascending, exactly like the word walk it
// replaces). Dense ids accumulate in a word scratch and compress in one
// FromWords pass, so conversion costs word ops, not per-bit container
// inserts. Caller holds pub under refresh's read side.
func (ev *Evaluator) convertLocked(sel *bitset.Set, leftover []int64) *bitset.Set {
	// Upper bound on the dense ids this set can touch: every id already
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
	return bitset.FromWords(words)
}

// scanSel runs one predicate's plan: one ScanAttrRowSet over the base
// table, whose selection keeps the rows below plumbed (the rows the row
// plumbing maps) and whose spill collects the pids of the rows inserted
// since. A scan taken after a base-table compaction past epoch, the one the
// plumbing describes, names rows the plumbing does not: it is made again
// with every row spilled. It reads only the store and its arguments, so it
// needs no lock.
func (ev *Evaluator) scanSel(plan *relstore.Plan, plumbed int, epoch uint64) (sel *bitset.Set, leftover []int64, err error) {
	spill := func(_ int, pid int64) { leftover = append(leftover, pid) }
	if sel, err = plan.ScanAttrRowSet(ev.keyAttr, plumbed, spill); err != nil {
		return nil, nil, err
	}
	// Compactions only move forward, so none after epoch as of now means
	// none before the scan either.
	if comps, ok := ev.db.Table(ev.from).CompactionsSince(epoch); ok && len(comps) == 0 {
		return sel, leftover, nil
	}
	leftover = leftover[:0]
	sel, err = plan.ScanAttrRowSet(ev.keyAttr, 0, spill)
	return sel, leftover, err
}

// PredBitmap returns the distinct tuple ids matching one preference as a
// set of dense ids, materializing it on first use. A resident predicate
// costs two loads and no lock. The set is shared: never mutate it.
func (ev *Evaluator) PredBitmap(p hypre.ScoredPred) (*bitset.Set, error) {
	v, err := ev.materialize([]hypre.ScoredPred{p})
	if err != nil {
		return nil, err
	}
	return v.bit(ev.id(p)), nil
}

// predSets is PredBitmap over a profile, one set per preference.
func (ev *Evaluator) predSets(prefs []hypre.ScoredPred) ([]*bitset.Set, error) {
	sets := make([]*bitset.Set, len(prefs))
	for i, p := range prefs {
		s, err := ev.PredBitmap(p)
		if err != nil {
			return nil, err
		}
		sets[i] = s
	}
	return sets, nil
}

// groupBitmap folds one OR group to its union. Single-member groups (the
// common case: every pure AND combination) return the cached predicate
// set itself — safe because set operations never mutate operands.
func (ev *Evaluator) groupBitmap(g []hypre.ScoredPred) (*bitset.Set, error) {
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

// comboBitmap evaluates a combination to its set of dense tuple ids:
// union within OR groups, intersection across AND groups, with an early
// exit once the running intersection empties. It does not touch the work
// counters, so concurrent readers may use it after materialization.
func (ev *Evaluator) comboBitmap(c Combo) (*bitset.Set, error) {
	var acc *bitset.Set
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
		if acc.IsEmpty() {
			return bitset.New(), nil
		}
	}
	if acc == nil {
		return bitset.New(), nil
	}
	return acc, nil
}

// record builds the Record row for an already-evaluated combination.
func (ev *Evaluator) record(c Combo, b *bitset.Set) Record {
	return Record{
		NumPreds:  c.NumPreds(),
		NumTuples: b.Len(),
		Intensity: c.Intensity(),
		Combo:     c,
		Tuples:    ev.dict.IntSet(b),
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
		plan, err := ev.db.Compile(ev.base(predicate.NewOr(ps...)))
		if err != nil {
			return 0, err
		}
		var ids []int64
		if _, err := plan.ScanAttrRowSet(ev.keyAttr, 0, func(_ int, pid int64) {
			ids = append(ids, pid)
		}); err != nil {
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
