package bitset

// This file is the partition layer of the compressed bitset: every
// 64k-key container span is an independent unit of work, and the one
// sharded consumer (internal/combine's parallel pair-table sweep) counts
// intersections one span at a time. Because containers partition the key
// space, |s ∩ o| = Σ_span AndCardSpan exactly — which is what makes the
// sharded counts bit-identical to the serial ones.

// Span identifies one 64k-key partition: the container high key (key >> 16).
type Span = uint32

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
