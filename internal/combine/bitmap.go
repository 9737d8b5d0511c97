package combine

import "hypre/internal/bitset"

// PidDict maps sparse tuple ids (pids) to dense bit positions and back. The
// Evaluator owns one dictionary per store; every predicate set materialized
// through it shares the same dense id space, so combination queries reduce
// to word-parallel bit algebra regardless of how large or sparse the pid
// domain is. Dense ids are handed out in first-seen order.
//
// A pid in [0, len(slot)) is found by direct address: slot[pid] holds its
// dense id + 1, and 0 means unassigned. The window doubles to cover a new
// pid only while it stays at most 2× the capacity of pids (the entries, or
// the count Reserve presized for) plus windowSlack. A slot costs 4 bytes and
// a pids entry 8, so the window never costs more than pids plus 4 ×
// windowSlack bytes, whatever the pid distribution. Negative pids and pids
// past that bound go to the far map, allocated on first use. A store keyed
// 1..n reads and writes its slots in row order instead of hashing every
// first sight.
type PidDict struct {
	slot []int32
	far  map[int64]int
	pids []int64
}

// windowSlack is how far the direct-address window may run ahead of twice
// cap(pids), and its smallest size: room for the first pids of a store keyed
// from 1.
const windowSlack = 64

// farEntryBytes estimates one far-map entry: an 8-byte key and an 8-byte
// value, doubled for control bytes, load factor and growth slack.
const farEntryBytes = 32

// NewPidDict returns an empty dictionary.
func NewPidDict() *PidDict { return &PidDict{} }

// Reserve presizes the dense id table for n total pids, keeping every
// existing assignment. Bulk seeding calls it once with the base table's row
// count, which also lets the window grow to cover pids up to about 2n.
func (d *PidDict) Reserve(n int) {
	if n <= cap(d.pids) {
		return
	}
	d.pids = append(make([]int64, 0, n), d.pids...)
}

// Add returns the dense index for pid, assigning the next free slot on
// first sight.
func (d *PidDict) Add(pid int64) int {
	if uint64(pid) < uint64(len(d.slot)) {
		if s := d.slot[pid]; s != 0 {
			return int(s) - 1
		}
	} else if i, ok := d.far[pid]; ok {
		return i
	}
	i := len(d.pids)
	d.pids = append(d.pids, pid)
	if uint64(pid) >= uint64(len(d.slot)) {
		d.grow(pid)
	}
	if uint64(pid) < uint64(len(d.slot)) {
		d.slot[pid] = int32(i + 1)
		return i
	}
	if d.far == nil {
		d.far = make(map[int64]int)
	}
	d.far[pid] = i
	return i
}

// grow doubles the window until it covers pid, if pid is not negative and
// the result stays within 2× cap(pids) plus windowSlack, and moves the
// far-map pids it now covers into their slots.
func (d *PidDict) grow(pid int64) {
	limit := 2*cap(d.pids) + windowSlack
	if pid < 0 || pid >= int64(limit) {
		return
	}
	n := max(len(d.slot), windowSlack)
	for int64(n) <= pid {
		n *= 2
	}
	if n > limit {
		return
	}
	slot := make([]int32, n)
	copy(slot, d.slot)
	for p, i := range d.far {
		if p >= 0 && p < int64(n) {
			slot[p] = int32(i + 1)
			delete(d.far, p)
		}
	}
	d.slot = slot
}

// PID returns the pid stored at dense index i.
func (d *PidDict) PID(i int) int64 { return d.pids[i] }

// Find returns the dense index assigned to pid, ok=false when the pid has
// never been registered (it then appears in no cached bitmap either).
func (d *PidDict) Find(pid int64) (int, bool) {
	if uint64(pid) < uint64(len(d.slot)) {
		s := d.slot[pid]
		return int(s) - 1, s != 0
	}
	i, ok := d.far[pid]
	return i, ok
}

// Size returns the number of distinct pids registered.
func (d *PidDict) Size() int { return len(d.pids) }

// SizeBytes estimates the dictionary's memory: the slot window, the dense
// id table, and farEntryBytes per far-map entry.
func (d *PidDict) SizeBytes() int64 {
	return int64(cap(d.slot))*4 + int64(cap(d.pids))*8 + int64(len(d.far))*farEntryBytes
}

// Bitmap is a set over PidDict indices, backed by the adaptive compressed
// containers of internal/bitset: sparse predicate sets cost bytes
// proportional to their cardinality (sorted-array containers), dense ones
// keep word-parallel algebra (truncated bitmap containers), and bulk ranges
// collapse to runs — while every operation stays bit-identical to the dense
// word-vector implementation this wraps away. Operations never mutate their
// receiver or argument, so cached predicate bitmaps can be shared freely
// across goroutines once built; mutation happens only on private bitmaps or
// copy-on-write Clones (the delta patch path).
type Bitmap struct {
	s *bitset.Set
}

// NewBitmap returns an empty bitmap.
func NewBitmap() *Bitmap { return &Bitmap{s: bitset.New()} }

// WrapSet adopts a bitset.Set built elsewhere (the evaluator's scan
// conversion, or a test that needs given container encodings) as a Bitmap;
// the set must not be mutated afterwards.
func WrapSet(s *bitset.Set) *Bitmap { return &Bitmap{s: s} }

// Set marks dense index i.
func (b *Bitmap) Set(i int) { b.s.Add(i) }

// Contains reports whether dense index i is set.
func (b *Bitmap) Contains(i int) bool { return b.s.Contains(i) }

// Clear unsets dense index i (a no-op when it is not set). Only the delta
// maintenance path mutates bitmaps, and only ever on a private Clone — the
// shared cached bitmaps stay immutable.
func (b *Bitmap) Clear(i int) { b.s.Remove(i) }

// Clone returns a copy safe to patch independently (copy-on-write at
// container granularity). Delta maintenance patches a clone and swaps it
// into the cache, so callers holding the previous bitmap keep a consistent
// (if stale) view.
func (b *Bitmap) Clone() *Bitmap { return &Bitmap{s: b.s.Clone()} }

// Len returns the cardinality (maintained incrementally; no popcount scan).
func (b *Bitmap) Len() int { return b.s.Len() }

// And returns b ∩ o as a new bitmap (word-parallel on dense containers,
// galloping intersection on sparse ones, full-run short-circuits).
func (b *Bitmap) And(o *Bitmap) *Bitmap { return &Bitmap{s: b.s.And(o.s)} }

// AndCard returns |b ∩ o| without materializing the intersection — the
// zero-allocation applicability/count check the pair table and DFS use.
func (b *Bitmap) AndCard(o *Bitmap) int { return b.s.AndCard(o.s) }

// AndInto computes a ∩ o into b, reusing b's storage where possible — the
// scratch discipline that keeps the PEPS chain DFS allocation-free. b must
// be a private scratch bitmap, never a cached or handed-out one.
func (b *Bitmap) AndInto(a, o *Bitmap) { b.s.AndInto(a.s, o.s) }

// Any reports whether b and o intersect, with container-level early exit
// (Definition 15's applicability test).
func (b *Bitmap) Any(o *Bitmap) bool { return b.s.Intersects(o.s) }

// Or returns b ∪ o as a new bitmap.
func (b *Bitmap) Or(o *Bitmap) *Bitmap { return &Bitmap{s: b.s.Or(o.s)} }

// ForEach invokes fn with every set dense index, ascending — the iteration
// primitive PEPS's tuple tracker and the memory accounting use.
func (b *Bitmap) ForEach(fn func(i int)) {
	b.s.ForEach(func(i int) bool { fn(i); return true })
}

// ForEachWord invokes fn with every non-zero word of the dense view,
// ascending (bitset.Set.ForEachWord) — the iteration RankResident folds.
func (b *Bitmap) ForEachWord(fn func(wi int, w uint64)) { b.s.ForEachWord(fn) }

// SizeBytes returns the bitmap's compressed memory footprint.
func (b *Bitmap) SizeBytes() int64 { return b.s.SizeBytes() }

// DenseSizeBytes returns what the bitmap would cost in the dense
// word-vector representation this package used before compression: one
// word per 64 dense indices up to the highest set bit — the baseline the
// MemStats ratios are measured against.
func (b *Bitmap) DenseSizeBytes() int64 {
	m, ok := b.s.Max()
	if !ok {
		return 0
	}
	return int64(m>>6+1) * 8
}

// ForEachPid invokes fn with the pid of every set bit, in dense-index order
// (which is NOT pid order) — the allocation-free iteration the Top-K list
// builder uses in place of materialized IntSet slices.
func (b *Bitmap) ForEachPid(d *PidDict, fn func(int64)) {
	b.s.ForEach(func(i int) bool {
		fn(d.PID(i))
		return true
	})
}

// AppendPids appends the pids of every set bit to dst (in dense-index
// order, which is NOT pid order) and returns the result.
func (b *Bitmap) AppendPids(d *PidDict, dst []int64) []int64 {
	b.ForEachPid(d, func(pid int64) { dst = append(dst, pid) })
	return dst
}

// ToIntSet converts the bitmap back to the sorted-slice representation via
// the dictionary. Costs one sort; used only where a Record needs its
// pid-ordered Tuples view.
func (b *Bitmap) ToIntSet(d *PidDict) IntSet {
	if b.s.IsEmpty() {
		return IntSet{}
	}
	pids := b.AppendPids(d, make([]int64, 0, b.s.Len()))
	sortInt64(pids)
	return IntSet(pids)
}
