package bitset

import "math/bits"

// Binary set operations between two containers of the same high key. All of
// them are non-mutating: results are freshly allocated (or payload-shared
// via container.shared for the full-run short-circuits, which is safe
// because shared payloads are cow-guarded). Operands are never empty —
// Set-level code skips missing containers first.

// andCtr returns a ∩ b.
func andCtr(a, b *container) container {
	// Full-run short-circuits: intersecting with a full container is the
	// identity, so the other side is returned without touching its payload.
	if a.isFull() {
		return b.shared()
	}
	if b.isFull() {
		return a.shared()
	}
	// Order the dispatch by encoding pair.
	if b.typ < a.typ {
		a, b = b, a
	}
	switch {
	case a.typ == ctArray && b.typ == ctArray:
		return normalize(intersectArrays(a.arr, b.arr))
	case a.typ == ctArray && b.typ == ctBitmap:
		out := container{typ: ctArray, arr: make([]uint16, 0, len(a.arr))}
		for _, v := range a.arr {
			if b.contains(v) {
				out.arr = append(out.arr, v)
			}
		}
		out.card = int32(len(out.arr))
		return normalize(out)
	case a.typ == ctArray && b.typ == ctRun:
		out := container{typ: ctArray,
			arr: intersectArrayRuns(make([]uint16, 0, len(a.arr)), a.arr, b.runs)}
		out.card = int32(len(out.arr))
		return normalize(out)
	case a.typ == ctBitmap && b.typ == ctBitmap:
		// Stays a bitmap regardless of the result cardinality: intersection
		// chains (the PEPS DFS) AND ephemeral results repeatedly, and the
		// word-parallel loop with no re-encoding pass is what keeps each
		// step as cheap as the dense implementation's. Durable sets re-pick
		// encodings at construction (fromWords) or via Optimize.
		n := min(len(a.bmp), len(b.bmp))
		out := container{typ: ctBitmap, bmp: make([]uint64, n)}
		card := 0
		for i := 0; i < n; i++ {
			w := a.bmp[i] & b.bmp[i]
			out.bmp[i] = w
			card += bits.OnesCount64(w)
		}
		out.card = int32(card)
		if card == 0 {
			return container{}
		}
		return out
	case a.typ == ctBitmap && b.typ == ctRun:
		out := container{typ: ctBitmap, bmp: make([]uint64, len(a.bmp))}
		card := 0
		lim := len(a.bmp) << 6
		for _, r := range b.runs {
			lo, hi := int(r.start), int(r.last)+1
			if lo >= lim {
				break
			}
			hi = min(hi, lim)
			wordsSetRange(out.bmp, lo, hi)
		}
		for i := range out.bmp {
			w := out.bmp[i] & a.bmp[i]
			out.bmp[i] = w
			card += bits.OnesCount64(w)
		}
		out.card = int32(card)
		return normalize(out)
	default: // run × run: two-pointer interval intersection
		out := container{typ: ctRun}
		card := 0
		i, j := 0, 0
		for i < len(a.runs) && j < len(b.runs) {
			ra, rb := a.runs[i], b.runs[j]
			lo := max(ra.start, rb.start)
			hi := minU16(ra.last, rb.last)
			if lo <= hi {
				out.runs = append(out.runs, interval{lo, hi})
				card += int(hi) - int(lo) + 1
			}
			if ra.last < rb.last {
				i++
			} else {
				j++
			}
		}
		out.card = int32(card)
		if card == 0 {
			return container{}
		}
		return out
	}
}

// intersectArrays intersects two sorted arrays, galloping through the
// larger side when the sizes are lopsided (gallopRatio).
func intersectArrays(a, b []uint16) container {
	if len(a) > len(b) {
		a, b = b, a
	}
	arr := intersectArraysInto(make([]uint16, 0, len(a)), a, b)
	return container{typ: ctArray, card: int32(len(arr)), arr: arr}
}

// intersectArraysInto appends a ∩ b to dst (a is the smaller side or the
// caller doesn't care), galloping when lopsided.
func intersectArraysInto(dst, a, b []uint16) []uint16 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopRatio*len(a) {
		lo := 0
		for _, v := range a {
			lo = gallopU16(b, lo, v)
			if lo >= len(b) {
				break
			}
			if b[lo] == v {
				dst = append(dst, v)
				lo++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Word-parallel-friendly skip: a[i..i+3] are all below b[j] (resp.
		// b[j..j+3] below a[i]), so none can intersect — stride past them
		// four at a time before the element-wise merge step.
		for i+4 <= len(a) && a[i+3] < b[j] {
			i += 4
		}
		if i == len(a) {
			break
		}
		for j+4 <= len(b) && b[j+3] < a[i] {
			j += 4
		}
		if j == len(b) {
			break
		}
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// gallopU16 returns the smallest index i >= from with arr[i] >= v, probing
// at exponentially growing offsets before binary-searching the bracket.
func gallopU16(arr []uint16, from int, v uint16) int {
	if from >= len(arr) || arr[from] >= v {
		return from
	}
	step := 1
	lo, hi := from, from+1
	for hi < len(arr) && arr[hi] < v {
		lo = hi
		step <<= 1
		hi = from + step
	}
	hi = min(hi, len(arr))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if arr[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// andCardCtr returns |a ∩ b| without materializing it.
func andCardCtr(a, b *container) int {
	if a.isFull() {
		return int(b.card)
	}
	if b.isFull() {
		return int(a.card)
	}
	if b.typ < a.typ {
		a, b = b, a
	}
	switch {
	case a.typ == ctArray && b.typ == ctArray:
		return andCardArrays(a.arr, b.arr)
	case a.typ == ctArray && b.typ == ctBitmap:
		n := 0
		for _, v := range a.arr {
			if b.contains(v) {
				n++
			}
		}
		return n
	case a.typ == ctArray && b.typ == ctRun:
		return andCardArrayRuns(a.arr, b.runs)
	case a.typ == ctBitmap && b.typ == ctBitmap:
		n := 0
		for i, lim := 0, min(len(a.bmp), len(b.bmp)); i < lim; i++ {
			n += bits.OnesCount64(a.bmp[i] & b.bmp[i])
		}
		return n
	case a.typ == ctBitmap && b.typ == ctRun:
		n := 0
		for _, r := range b.runs {
			n += onesInRange(a.bmp, int(r.start), int(r.last)+1)
		}
		return n
	default:
		n := 0
		i, j := 0, 0
		for i < len(a.runs) && j < len(b.runs) {
			ra, rb := a.runs[i], b.runs[j]
			lo := max(ra.start, rb.start)
			hi := minU16(ra.last, rb.last)
			if lo <= hi {
				n += int(hi) - int(lo) + 1
			}
			if ra.last < rb.last {
				i++
			} else {
				j++
			}
		}
		return n
	}
}

// andCardArrays counts the sorted-array intersection, galloping when
// lopsided.
func andCardArrays(a, b []uint16) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	if len(b) >= gallopRatio*len(a) {
		lo := 0
		for _, v := range a {
			lo = gallopU16(b, lo, v)
			if lo >= len(b) {
				break
			}
			if b[lo] == v {
				n++
				lo++
			}
		}
		return n
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		// Same 4-wide stride as intersectArraysInto.
		for i+4 <= len(a) && a[i+3] < b[j] {
			i += 4
		}
		if i == len(a) {
			break
		}
		for j+4 <= len(b) && b[j+3] < a[i] {
			j += 4
		}
		if j == len(b) {
			break
		}
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// onesInRange popcounts bits [lo, hi) of a truncated word vector.
func onesInRange(bmp []uint64, lo, hi int) int {
	hi = min(hi, len(bmp)<<6)
	if lo >= hi {
		return 0
	}
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		return bits.OnesCount64(bmp[lw] & loMask & hiMask)
	}
	n := bits.OnesCount64(bmp[lw] & loMask)
	for w := lw + 1; w < hw; w++ {
		n += bits.OnesCount64(bmp[w])
	}
	return n + bits.OnesCount64(bmp[hw]&hiMask)
}

// intersectsCtr reports a ∩ b ≠ ∅ with early exit.
func intersectsCtr(a, b *container) bool {
	if a.isFull() || b.isFull() {
		return true // operands are never empty
	}
	if b.typ < a.typ {
		a, b = b, a
	}
	switch {
	case a.typ == ctArray && b.typ == ctArray:
		sm, lg := a.arr, b.arr
		if len(sm) > len(lg) {
			sm, lg = lg, sm
		}
		if len(lg) >= gallopRatio*len(sm) {
			lo := 0
			for _, v := range sm {
				lo = gallopU16(lg, lo, v)
				if lo >= len(lg) {
					return false
				}
				if lg[lo] == v {
					return true
				}
			}
			return false
		}
		i, j := 0, 0
		for i < len(sm) && j < len(lg) {
			switch {
			case sm[i] < lg[j]:
				i++
			case sm[i] > lg[j]:
				j++
			default:
				return true
			}
		}
		return false
	case a.typ == ctArray && b.typ == ctBitmap:
		for _, v := range a.arr {
			if b.contains(v) {
				return true
			}
		}
		return false
	case a.typ == ctArray && b.typ == ctRun:
		for _, v := range a.arr {
			if searchRuns(b.runs, v) >= 0 {
				return true
			}
		}
		return false
	case a.typ == ctBitmap && b.typ == ctBitmap:
		for i, lim := 0, min(len(a.bmp), len(b.bmp)); i < lim; i++ {
			if a.bmp[i]&b.bmp[i] != 0 {
				return true
			}
		}
		return false
	case a.typ == ctBitmap && b.typ == ctRun:
		for _, r := range b.runs {
			if onesInRange(a.bmp, int(r.start), int(r.last)+1) > 0 {
				return true
			}
		}
		return false
	default:
		i, j := 0, 0
		for i < len(a.runs) && j < len(b.runs) {
			ra, rb := a.runs[i], b.runs[j]
			if max(ra.start, rb.start) <= minU16(ra.last, rb.last) {
				return true
			}
			if ra.last < rb.last {
				i++
			} else {
				j++
			}
		}
		return false
	}
}

// orCtr returns a ∪ b.
func orCtr(a, b *container) container {
	if a.isFull() || b.isFull() {
		return fullContainer()
	}
	if a.typ == ctRun && b.typ == ctRun {
		return orRuns(a.runs, b.runs)
	}
	if a.typ == ctArray && b.typ == ctArray && int(a.card)+int(b.card) <= 4096 {
		return normalize(mergeArrays(a.arr, b.arr))
	}
	// General case: materialize into a dense accumulator covering both.
	hi := max(a.maxLow(), b.maxLow())
	out := container{typ: ctBitmap, bmp: make([]uint64, hi>>6+1)}
	orInto(out.bmp, a)
	orInto(out.bmp, b)
	card := 0
	for _, w := range out.bmp {
		card += bits.OnesCount64(w)
	}
	out.card = int32(card)
	return normalize(out)
}

// orRuns merges two run lists.
func orRuns(a, b []interval) container {
	out := container{typ: ctRun}
	card := 0
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var r interval
		if j >= len(b) || (i < len(a) && a[i].start <= b[j].start) {
			r = a[i]
			i++
		} else {
			r = b[j]
			j++
		}
		if n := len(out.runs); n > 0 && int(out.runs[n-1].last)+1 >= int(r.start) {
			if r.last > out.runs[n-1].last {
				card += int(r.last) - int(out.runs[n-1].last)
				out.runs[n-1].last = r.last
			}
		} else {
			out.runs = append(out.runs, r)
			card += int(r.last) - int(r.start) + 1
		}
	}
	out.card = int32(card)
	return out
}

// mergeArrays unions two sorted arrays.
func mergeArrays(a, b []uint16) container {
	out := container{typ: ctArray, arr: make([]uint16, 0, len(a)+len(b))}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out.arr = append(out.arr, a[i])
			i++
		case a[i] > b[j]:
			out.arr = append(out.arr, b[j])
			j++
		default:
			out.arr = append(out.arr, a[i])
			i++
			j++
		}
	}
	out.arr = append(out.arr, a[i:]...)
	out.arr = append(out.arr, b[j:]...)
	out.card = int32(len(out.arr))
	return out
}

// orInto sets every bit of c in a dense word vector that covers c.
func orInto(bmp []uint64, c *container) {
	switch c.typ {
	case ctArray:
		for _, v := range c.arr {
			bmp[v>>6] |= 1 << (v & 63)
		}
	case ctBitmap:
		// c.bmp may carry trailing zero words past c's maxLow (AND results
		// keep their allocation length); bmp covers maxLow, so the excess
		// is all-zero and safe to drop.
		for i, w := range c.bmp[:min(len(bmp), len(c.bmp))] {
			bmp[i] |= w
		}
	case ctRun:
		for _, r := range c.runs {
			wordsSetRange(bmp, int(r.start), int(r.last)+1)
		}
	}
}

// andNotCtr returns a \ b.
func andNotCtr(a, b *container) container {
	if b.isFull() {
		return container{}
	}
	switch a.typ {
	case ctArray:
		out := container{typ: ctArray}
		for _, v := range a.arr {
			if !b.contains(v) {
				out.arr = append(out.arr, v)
			}
		}
		out.card = int32(len(out.arr))
		return normalize(out)
	case ctBitmap:
		out := container{typ: ctBitmap, bmp: append([]uint64(nil), a.bmp...)}
		clearFrom(out.bmp, b)
		card := 0
		for _, w := range out.bmp {
			card += bits.OnesCount64(w)
		}
		out.card = int32(card)
		return normalize(out)
	default:
		ab := a.toBitmap()
		return andNotCtr(&ab, b)
	}
}

// clearFrom clears every bit of c from a truncated word vector.
func clearFrom(bmp []uint64, c *container) {
	lim := len(bmp) << 6
	switch c.typ {
	case ctArray:
		for _, v := range c.arr {
			if int(v) < lim {
				bmp[v>>6] &^= 1 << (v & 63)
			}
		}
	case ctBitmap:
		for i, lim := 0, min(len(bmp), len(c.bmp)); i < lim; i++ {
			bmp[i] &^= c.bmp[i]
		}
	case ctRun:
		for _, r := range c.runs {
			lo, hi := int(r.start), int(r.last)+1
			if lo >= lim {
				break
			}
			hi = min(hi, lim)
			clearRange(bmp, lo, hi)
		}
	}
}

// clearRange clears bits [lo, hi) in a word vector that covers hi.
func clearRange(words []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		words[lw] &^= loMask & hiMask
		return
	}
	words[lw] &^= loMask
	for w := lw + 1; w < hw; w++ {
		words[w] = 0
	}
	words[hw] &^= hiMask
}

// rangeContainer builds a run container covering [lo, hi] inclusive.
func rangeContainer(lo, hi int) container {
	return container{
		typ:  ctRun,
		card: int32(hi - lo + 1),
		runs: []interval{{uint16(lo), uint16(hi)}},
	}
}

func fullContainer() container { return rangeContainer(0, containerSpan-1) }

func minU16(a, b uint16) uint16 {
	if a < b {
		return a
	}
	return b
}
