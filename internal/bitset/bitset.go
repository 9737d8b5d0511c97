// Package bitset implements the adaptive compressed bitmap shared by every
// hot layer of the engine: the combination evaluator's predicate sets and
// PEPS chain intersections (internal/combine), relstore's scan selections,
// tombstone masks, and join-existence vectors, the delta maintainer's
// touched-row masks, and the top-k list builder's iteration.
//
// The representation is roaring-style: keys partition into 64k-wide spans,
// each held by a container that switches between sorted-array, truncated
// dense-bitmap, and run encodings on byte-size thresholds (see container.go).
// Sparse predicate sets therefore cost bytes proportional to their
// cardinality instead of the full domain, while dense sets keep the
// word-parallel algebra of a plain bitmap — which is what makes the swap a
// pure representation change: results are bit-identical to the dense
// implementation it replaces.
//
// Concurrency: a Set is not safe for concurrent mutation, but the binary
// operations (And, Or, AndNot, AndCard, Intersects) never mutate their
// operands, so built Sets can be shared across goroutines. Clone is
// copy-on-write at container granularity: the clone shares payloads until
// either side's first mutation, which is what keeps the delta maintainer's
// bitmap patches cheap.
package bitset

import "math/bits"

// Set is an adaptive compressed bitmap over non-negative integer keys.
//
// The one-container case (any domain under 65536 keys — every per-table
// selection and dense-dictionary bitmap in this engine) is the common one,
// so the key and container vectors start out backed by inline arrays:
// building or intersecting such a set costs one heap object for the Set
// plus the payload, the same allocation count as the dense word-vector
// representation this package replaced. Multi-container sets spill to the
// heap through ordinary append growth.
type Set struct {
	keys []uint32    // sorted container high keys (key >> 16)
	cs   []container // parallel to keys
	card int
	k0   [1]uint32    // inline backing for the single-container case
	c0   [1]container //
}

// New returns an empty set.
func New() *Set {
	s := &Set{}
	s.keys = s.k0[:0:1]
	s.cs = s.c0[:0:1]
	return s
}

// Len returns the cardinality.
func (s *Set) Len() int { return s.card }

// IsEmpty reports whether no key is set.
func (s *Set) IsEmpty() bool { return s.card == 0 }

// find returns the container index holding high key hk, or -1.
func (s *Set) find(hk uint32) int {
	lo, hi := 0, len(s.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.keys[mid] < hk {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.keys) && s.keys[lo] == hk {
		return lo
	}
	return -1
}

// insertAt places a container for hk at sorted position.
func (s *Set) insertAt(hk uint32, c container) {
	lo, hi := 0, len(s.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.keys[mid] < hk {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	s.keys = append(s.keys, 0)
	s.cs = append(s.cs, container{})
	copy(s.keys[lo+1:], s.keys[lo:])
	copy(s.cs[lo+1:], s.cs[lo:])
	s.keys[lo] = hk
	s.cs[lo] = c
}

// Add sets key i, reporting whether it was newly set.
func (s *Set) Add(i int) bool {
	hk, low := uint32(i>>16), uint16(i)
	if ci := s.find(hk); ci >= 0 {
		if s.cs[ci].add(low) {
			s.card++
			return true
		}
		return false
	}
	s.insertAt(hk, container{typ: ctArray, card: 1, arr: []uint16{low}})
	s.card++
	return true
}

// Remove clears key i, reporting whether it was set.
func (s *Set) Remove(i int) bool {
	ci := s.find(uint32(i >> 16))
	if ci < 0 {
		return false
	}
	if !s.cs[ci].remove(uint16(i)) {
		return false
	}
	s.card--
	if s.cs[ci].isEmpty() {
		s.removeAt(ci)
	}
	return true
}

func (s *Set) removeAt(ci int) {
	s.keys = append(s.keys[:ci], s.keys[ci+1:]...)
	s.cs = append(s.cs[:ci], s.cs[ci+1:]...)
}

// Contains reports whether key i is set.
func (s *Set) Contains(i int) bool {
	ci := s.find(uint32(i >> 16))
	return ci >= 0 && s.cs[ci].contains(uint16(i))
}

// AddRange sets keys [lo, hi) in bulk, landing as run containers for every
// fully covered span — the zone-map bulk-accept and alive-mask shape.
func (s *Set) AddRange(lo, hi int) {
	for lo < hi {
		hk := uint32(lo >> 16)
		spanEnd := (int(hk) + 1) << 16
		end := min(hi, spanEnd)
		cLo, cHi := lo&0xffff, (end-1)&0xffff
		if ci := s.find(hk); ci >= 0 {
			r := rangeContainer(cLo, cHi)
			merged := orCtr(&s.cs[ci], &r)
			s.card += int(merged.card - s.cs[ci].card)
			s.cs[ci] = merged
		} else {
			s.insertAt(hk, rangeContainer(cLo, cHi))
			s.card += cHi - cLo + 1
		}
		lo = end
	}
}

// Clone returns a copy sharing container payloads copy-on-write: O(number
// of containers), with the clone's first mutation of a container unsharing
// just that container. The original must not be mutated in place afterwards
// — cached sets handed to other goroutines are only ever patched through a
// Clone, the same discipline the dense implementation required.
func (s *Set) Clone() *Set {
	out := New()
	out.keys = append(out.keys, s.keys...)
	out.card = s.card
	for i := range s.cs {
		out.cs = append(out.cs, s.cs[i].shared())
	}
	return out
}

// And returns s ∩ o as a new set.
func (s *Set) And(o *Set) *Set {
	out := New()
	if n := min(len(s.keys), len(o.keys)); n > 1 {
		out.keys = make([]uint32, 0, n)
		out.cs = make([]container, 0, n)
	}
	i, j := 0, 0
	for i < len(s.keys) && j < len(o.keys) {
		switch {
		case s.keys[i] < o.keys[j]:
			i++
		case s.keys[i] > o.keys[j]:
			j++
		default:
			c := andCtr(&s.cs[i], &o.cs[j])
			if !c.isEmpty() {
				out.keys = append(out.keys, s.keys[i])
				out.cs = append(out.cs, c)
				out.card += int(c.card)
			}
			i++
			j++
		}
	}
	return out
}

// AndCard returns |s ∩ o| without materializing the intersection.
func (s *Set) AndCard(o *Set) int {
	n := 0
	i, j := 0, 0
	for i < len(s.keys) && j < len(o.keys) {
		switch {
		case s.keys[i] < o.keys[j]:
			i++
		case s.keys[i] > o.keys[j]:
			j++
		default:
			n += andCardCtr(&s.cs[i], &o.cs[j])
			i++
			j++
		}
	}
	return n
}

// Intersects reports s ∩ o ≠ ∅, with container-level early exit.
func (s *Set) Intersects(o *Set) bool {
	i, j := 0, 0
	for i < len(s.keys) && j < len(o.keys) {
		switch {
		case s.keys[i] < o.keys[j]:
			i++
		case s.keys[i] > o.keys[j]:
			j++
		default:
			if intersectsCtr(&s.cs[i], &o.cs[j]) {
				return true
			}
			i++
			j++
		}
	}
	return false
}

// Or returns s ∪ o as a new set.
func (s *Set) Or(o *Set) *Set {
	out := New()
	i, j := 0, 0
	for i < len(s.keys) || j < len(o.keys) {
		switch {
		case j >= len(o.keys) || (i < len(s.keys) && s.keys[i] < o.keys[j]):
			out.keys = append(out.keys, s.keys[i])
			out.cs = append(out.cs, s.cs[i].shared())
			out.card += int(s.cs[i].card)
			i++
		case i >= len(s.keys) || s.keys[i] > o.keys[j]:
			out.keys = append(out.keys, o.keys[j])
			out.cs = append(out.cs, o.cs[j].shared())
			out.card += int(o.cs[j].card)
			j++
		default:
			c := orCtr(&s.cs[i], &o.cs[j])
			out.keys = append(out.keys, s.keys[i])
			out.cs = append(out.cs, c)
			out.card += int(c.card)
			i++
			j++
		}
	}
	return out
}

// AndNot returns s \ o as a new set.
func (s *Set) AndNot(o *Set) *Set {
	out := New()
	j := 0
	for i := range s.keys {
		for j < len(o.keys) && o.keys[j] < s.keys[i] {
			j++
		}
		if j < len(o.keys) && o.keys[j] == s.keys[i] {
			c := andNotCtr(&s.cs[i], &o.cs[j])
			if !c.isEmpty() {
				out.keys = append(out.keys, s.keys[i])
				out.cs = append(out.cs, c)
				out.card += int(c.card)
			}
		} else {
			out.keys = append(out.keys, s.keys[i])
			out.cs = append(out.cs, s.cs[i].shared())
			out.card += int(s.cs[i].card)
		}
	}
	return out
}

// AndInto computes a ∩ b into s, reusing s's payload storage when the
// shapes line up — the single-container fast paths that keep a chain of
// intersections (the PEPS DFS) allocation-free in steady state. s must be
// privately owned and must not alias a or b; any previous contents are
// discarded. Empty results park their buffer in the inline container, so a
// dead-end chain step keeps the storage for the next sibling.
func (s *Set) AndInto(a, b *Set) {
	if len(a.keys) != 1 || len(b.keys) != 1 || a.keys[0] != b.keys[0] {
		s.replaceWith(a.And(b))
		return
	}
	ca, cb := &a.cs[0], &b.cs[0]
	if cb.typ < ca.typ {
		ca, cb = cb, ca
	}
	switch {
	case ca.typ == ctBitmap && cb.typ == ctBitmap:
		n := min(len(ca.bmp), len(cb.bmp))
		var dst []uint64
		if c := &s.c0[0]; c.typ == ctBitmap && !c.cow && cap(c.bmp) >= n {
			dst = c.bmp[:n]
		} else {
			dst = make([]uint64, n)
		}
		card := 0
		for i := 0; i < n; i++ {
			w := ca.bmp[i] & cb.bmp[i]
			dst[i] = w
			card += bits.OnesCount64(w)
		}
		s.c0[0] = container{typ: ctBitmap, card: int32(card), bmp: dst}
		s.publishInline(a.keys[0], card)
	case ca.typ == ctArray:
		// Array result no larger than the array operand; probe or merge
		// into a reused element buffer. Scratch results skip re-encoding —
		// they are ephemeral by contract.
		var dst []uint16
		if c := &s.c0[0]; c.typ == ctArray && !c.cow && cap(c.arr) >= len(ca.arr) {
			dst = c.arr[:0]
		} else {
			dst = make([]uint16, 0, len(ca.arr))
		}
		switch cb.typ {
		case ctArray:
			dst = intersectArraysInto(dst, ca.arr, cb.arr)
		case ctBitmap:
			for _, v := range ca.arr {
				if cb.contains(v) {
					dst = append(dst, v)
				}
			}
		default:
			if cb.isFull() {
				dst = append(dst, ca.arr...)
			} else {
				dst = intersectArrayRuns(dst, ca.arr, cb.runs)
			}
		}
		s.c0[0] = container{typ: ctArray, card: int32(len(dst)), arr: dst}
		s.publishInline(a.keys[0], len(dst))
	default:
		s.replaceWith(a.And(b))
	}
}

// publishInline points the set at its inline container, holding card keys
// (an empty view when card is 0, with the container parked for buffer
// reuse).
func (s *Set) publishInline(hk uint32, card int) {
	s.card = card
	if card == 0 {
		s.keys = s.k0[:0]
		s.cs = s.c0[:0]
		return
	}
	s.keys = s.k0[:1]
	s.keys[0] = hk
	s.cs = s.c0[:1]
}

// AndNotWith replaces s with s \ o in place (s must be privately owned).
func (s *Set) AndNotWith(o *Set) { s.replaceWith(s.AndNot(o)) }

func (s *Set) replaceWith(o *Set) { *s = *o }

// Retain keeps exactly the keys fn approves, in place: s must be privately
// owned (a Clone is; containers it shares are replaced, never written).
// Kept containers re-encode to their smallest form; an array container's
// survivors land in one allocation of its cardinality, made on the first.
func (s *Set) Retain(fn func(i int) bool) {
	n := 0
	s.card = 0
	for i, hk := range s.keys {
		base := int(hk) << 16
		src := &s.cs[i]
		kept := container{typ: ctArray}
		src.forEach(base, func(v int) bool {
			if fn(v) {
				if kept.arr == nil && src.typ == ctArray {
					kept.arr = make([]uint16, 0, src.card)
				}
				kept.arr = append(kept.arr, uint16(v-base))
			}
			return true
		})
		kept.card = int32(len(kept.arr))
		if !kept.isEmpty() {
			s.keys[n], s.cs[n] = hk, normalize(kept)
			s.card += int(kept.card)
			n++
		}
	}
	clear(s.cs[n:])
	s.keys, s.cs = s.keys[:n], s.cs[:n]
}

// ForEach visits every set key ascending; fn returning false stops the walk.
func (s *Set) ForEach(fn func(i int) bool) {
	for i, hk := range s.keys {
		if !s.cs[i].forEach(int(hk)<<16, fn) {
			return
		}
	}
}

// ForEachWord visits every non-zero word of the dense selection-vector view
// ascending: fn(wi, w) means bit b of w is key wi<<6 + b. One call per word
// instead of one per key is what lets a caller fold a whole word's keys in
// its own loop.
func (s *Set) ForEachWord(fn func(wi int, w uint64)) {
	for i, hk := range s.keys {
		s.cs[i].forEachWord(int(hk)<<10, fn)
	}
}

// NextSet returns the smallest set key >= from, or ok=false. The
// container holding from is bisected to, so a loop of NextSet jumps costs
// O(log containers) per call, not a scan of the key list.
func (s *Set) NextSet(from int) (int, bool) {
	if from < 0 {
		from = 0
	}
	hk := uint32(from >> 16)
	lo, hi := 0, len(s.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.keys[mid] < hk {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(s.keys); i++ {
		start := 0
		if s.keys[i] == hk {
			start = from & 0xffff
		}
		if v, ok := s.cs[i].nextSet(start); ok {
			return int(s.keys[i])<<16 + v, true
		}
	}
	return 0, false
}

// Max returns the largest set key; ok=false when the set is empty.
func (s *Set) Max() (int, bool) {
	if s.card == 0 {
		return 0, false
	}
	last := len(s.keys) - 1
	return int(s.keys[last])<<16 + s.cs[last].maxLow(), true
}

// Optimize re-encodes every container to its smallest of the three forms,
// including run detection — worth one pass after bulk point construction
// (e.g. the join-existence vector, which is mostly ranges).
func (s *Set) Optimize() {
	for i := range s.cs {
		s.cs[i] = optimize(s.cs[i])
	}
}

// SizeBytes returns the set's serialized footprint: container payloads
// plus one metadata word per container plus a fixed set header — the
// MemStats currency every layer rolls up. Like roaring's size accounting,
// Go object headers are excluded.
func (s *Set) SizeBytes() int64 {
	n := int64(8)
	for i := range s.cs {
		n += s.cs[i].sizeBytes()
	}
	return n
}

// FromWords builds a set from a dense selection-vector view (bit i of
// words[i>>6] = key i), re-encoding each 64k span adaptively.
func FromWords(words []uint64) *Set {
	out := New()
	for base := 0; base < len(words); base += maxWords {
		chunk := words[base:min(base+maxWords, len(words))]
		c := fromWords(chunk)
		if !c.isEmpty() {
			out.keys = append(out.keys, uint32(base/maxWords))
			out.cs = append(out.cs, c)
			out.card += int(c.card)
		}
	}
	return out
}
