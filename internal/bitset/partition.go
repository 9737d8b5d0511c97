package bitset

// This file is the partition layer of the compressed bitset: every
// 64k-key container span is an independent unit of work, and the sharded
// evaluation paths (internal/combine's pair-table build, relstore's
// partitioned scan kernels, and the delta maintainer's span-restricted pair
// recount) slice, combine, and merge sets one span at a time. Because containers partition the key space, every set operation
// distributes over spans exactly: And(s, o) = ⊎_span And(Shard(s, span),
// Shard(o, span)), and |s ∩ o| = Σ_span AndCardSpan — which is what makes
// the sharded results bit-identical to the serial ones.

// Span identifies one 64k-key partition: the container high key (key >> 16).
type Span = uint32

// SpanWidth is the key width of one partition.
const SpanWidth = containerSpan

// SpanOf returns the span holding key i.
func SpanOf(i int) Span { return Span(i >> 16) }

// SpanBase returns the smallest key of a span.
func SpanBase(span Span) int { return int(span) << 16 }

// SpanCount returns the number of spans covering a key domain of size n —
// the single place the span width enters sizing arithmetic outside this
// package.
func SpanCount(n int) int {
	if n <= 0 {
		return 0
	}
	return int(SpanOf(n-1)) + 1
}

// Spans returns the high keys of s's populated containers, ascending. The
// slice aliases the set's internal storage: callers must treat it as
// read-only and must not hold it across mutations of s.
func (s *Set) Spans() []Span { return s.keys }

// SpanUnion returns the sorted union of the populated spans of every given
// set — the partition list a sharded operation over those sets fans out
// over. Spans where no set has a container carry no keys and no work.
func SpanUnion(sets ...*Set) []Span {
	switch len(sets) {
	case 0:
		return nil
	case 1:
		return append([]Span(nil), sets[0].keys...)
	}
	// k-way merge via repeated min; set counts here are small (one per
	// predicate) and span lists are short, so the simple scan wins over a
	// heap.
	pos := make([]int, len(sets))
	var out []Span
	for {
		best, has := Span(0), false
		for i, s := range sets {
			if pos[i] < len(s.keys) && (!has || s.keys[pos[i]] < best) {
				best, has = s.keys[pos[i]], true
			}
		}
		if !has {
			return out
		}
		out = append(out, best)
		for i, s := range sets {
			if pos[i] < len(s.keys) && s.keys[pos[i]] == best {
				pos[i]++
			}
		}
	}
}

// Shard returns a zero-copy single-span view of s: a set holding exactly
// s's keys within span, sharing the container payload copy-on-write (the
// view's first mutation unshares, so the original is never disturbed). An
// absent span yields an empty set. Shards of distinct spans are disjoint,
// and the union of all shards is s — the partition invariant the sharded
// evaluators rely on.
func (s *Set) Shard(span Span) *Set {
	out := New()
	ci := s.find(span)
	if ci < 0 {
		return out
	}
	out.k0[0] = span
	out.c0[0] = s.cs[ci].shared()
	out.keys = out.k0[:1]
	out.cs = out.c0[:1]
	out.card = int(out.c0[0].card)
	return out
}

// AndCardSpan returns |s ∩ o| restricted to one span — the container-local
// count a sharded pair-table worker computes. Summed over SpanUnion(s, o)
// it equals AndCard exactly.
func (s *Set) AndCardSpan(o *Set, span Span) int {
	i := s.find(span)
	if i < 0 {
		return 0
	}
	j := o.find(span)
	if j < 0 {
		return 0
	}
	return andCardCtr(&s.cs[i], &o.cs[j])
}

// AndCardSpans returns |s ∩ o| restricted to the given spans (sorted,
// deduplicated) — the delta maintainer's span-restricted pair recount,
// costing only the partitions a mutation batch actually touched.
func (s *Set) AndCardSpans(o *Set, spans []Span) int {
	n := 0
	for _, span := range spans {
		n += s.AndCardSpan(o, span)
	}
	return n
}

// MergeAscending assembles the partition-sharded results of a scan back
// into one set. Parts must cover pairwise-disjoint, ascending key ranges
// (the shape a block-partitioned kernel fan-out produces); within that
// contract parts may be nil or empty, and consecutive parts may meet
// inside one span — a partition boundary that is not container-aligned
// splits a container across two parts, and the seam containers are OR-ed
// and re-encoded to the same smallest form a serial build would have
// picked. Non-seam containers transfer zero-copy (copy-on-write shared).
func MergeAscending(parts []*Set) *Set {
	out := New()
	for _, p := range parts {
		if p == nil || len(p.keys) == 0 {
			continue
		}
		for i, hk := range p.keys {
			if n := len(out.keys); n > 0 && out.keys[n-1] == hk {
				// Seam: two partial containers of the same span. Their
				// populations are disjoint, so the OR is a concatenation
				// re-encoded to the smallest form (run detection included,
				// matching what one fromWords pass over the whole span
				// chooses).
				merged := optimize(orCtr(&out.cs[n-1], &p.cs[i]))
				out.card += int(merged.card) - int(out.cs[n-1].card)
				out.cs[n-1] = merged
				continue
			}
			out.keys = append(out.keys, hk)
			out.cs = append(out.cs, p.cs[i].shared())
			out.card += int(p.cs[i].card)
		}
	}
	return out
}
