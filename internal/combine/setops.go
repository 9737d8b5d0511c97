package combine

// IntSet is a sorted, deduplicated set of tuple ids (pids). The evaluator
// materializes one per atomic preference predicate and answers combination
// queries with set algebra, mirroring the pre-computed combination table of
// §5.5 ("a pre-computed list of combinations of two predicates").
type IntSet []int64

// NewIntSet builds a set from arbitrary input (sorts and dedupes).
func NewIntSet(vals []int64) IntSet {
	if len(vals) == 0 {
		return IntSet{}
	}
	s := append(IntSet(nil), vals...)
	sortInt64(s)
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

func sortInt64(s []int64) {
	// Simple bottom-up merge sort to stay allocation-light; inputs are the
	// per-predicate result sets, typically small.
	if len(s) < 2 {
		return
	}
	buf := make([]int64, len(s))
	for width := 1; width < len(s); width *= 2 {
		for lo := 0; lo < len(s); lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > len(s) {
				mid = len(s)
			}
			if hi > len(s) {
				hi = len(s)
			}
			mergeInt64(buf[lo:hi], s[lo:mid], s[mid:hi])
		}
		copy(s, buf)
	}
}

func mergeInt64(dst, a, b []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// Len returns the cardinality.
func (s IntSet) Len() int { return len(s) }

// Contains reports membership via binary search.
func (s IntSet) Contains(v int64) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}

// Intersect returns s ∩ o.
func (s IntSet) Intersect(o IntSet) IntSet {
	small, large := s, o
	if len(small) > len(large) {
		small, large = large, small
	}
	var out IntSet
	if len(small) == 0 {
		return out
	}
	if len(large) >= gallopFactor*len(small) {
		return small.gallopIntersect(large)
	}
	i, j := 0, 0
	for i < len(small) && j < len(large) {
		switch {
		case small[i] < large[j]:
			i++
		case small[i] > large[j]:
			j++
		default:
			out = append(out, small[i])
			i++
			j++
		}
	}
	return out
}

// gallopFactor is the size ratio beyond which the galloping (exponential
// search) intersection beats the linear merge: the merge is O(n+m), the
// gallop O(n log m), so it wins once m/n clears a small constant.
const gallopFactor = 8

// gallopIntersect intersects a small sorted set with a much larger one by
// exponential search: for each element of the receiver it doubles a probe
// offset into the remaining suffix of large, then binary-searches the
// bracketed window.
func (s IntSet) gallopIntersect(large IntSet) IntSet {
	var out IntSet
	lo := 0
	for _, v := range s {
		lo = gallopSearch(large, lo, v)
		if lo >= len(large) {
			break
		}
		if large[lo] == v {
			out = append(out, v)
			lo++
		}
	}
	return out
}

// gallopSearch returns the smallest index i >= from with large[i] >= v,
// probing at exponentially growing offsets before binary-searching the
// final window.
func gallopSearch(large IntSet, from int, v int64) int {
	if from >= len(large) || large[from] >= v {
		return from
	}
	step := 1
	lo := from
	hi := from + step
	for hi < len(large) && large[hi] < v {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > len(large) {
		hi = len(large)
	}
	// Invariant: large[lo] < v <= large[hi] (if hi in range).
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if large[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
