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

// IntSet translates a set of dense ids to the pids they stand for, sorted:
// the pid-ordered view Record.Tuples and metrics.CoverageSet carry.
func (d *PidDict) IntSet(s *bitset.Set) IntSet {
	pids := make([]int64, 0, s.Len())
	s.ForEach(func(i int) bool {
		pids = append(pids, d.pids[i])
		return true
	})
	sortInt64(pids)
	return IntSet(pids)
}

// Bitmap is the evaluator's predicate set under the name bench/ spells it.
// Everything else names bitset.Set.
type Bitmap = bitset.Set
