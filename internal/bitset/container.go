package bitset

import "math/bits"

// A container holds the low 16 bits of the keys sharing one high-16-bit
// prefix, in whichever of three encodings is smallest for its population:
//
//   - array:  sorted []uint16, 2 bytes per element — sparse populations.
//   - bitmap: dense word vector, truncated after the last set bit (missing
//     high words read as zero), at most 1024 words — mid-density
//     populations. Truncation matters: the evaluator's dense sets over a
//     few-thousand-row domain must not pay the full 8 KiB a fixed roaring
//     container would.
//   - run:    sorted, non-overlapping, non-adjacent [start, last] intervals
//     (inclusive on both ends, so a run touching 65535 needs no 17-bit
//     arithmetic), 4 bytes per run — zone-map bulk-accepts, alive masks,
//     and other range-shaped populations.
//
// Containers are value types inside Set; the payload slices may be shared
// between Sets after Clone, guarded by the cow flag (see ensureOwned).
type container struct {
	typ  ctype
	cow  bool // payload shared with another Set; copy before mutating
	card int32
	arr  []uint16
	bmp  []uint64
	runs []interval
}

type ctype uint8

const (
	ctArray ctype = iota
	ctBitmap
	ctRun
)

// interval is one run: every low value in [start, last], both inclusive.
type interval struct{ start, last uint16 }

const (
	containerSpan = 1 << 16
	maxWords      = containerSpan / 64
	// gallopRatio is the size lopsidedness beyond which array×array
	// intersection switches from the linear merge to galloping
	// (exponential-probe) search: merge is O(n+m), gallop O(n log m).
	gallopRatio = 8
)

// sizes of each encoding in payload bytes, used to pick the smallest.
func sizeArray(card int) int { return 2 * card }
func sizeRun(nRuns int) int  { return 4 * nRuns }
func sizeBitmap(maxLow int) int {
	return 8 * (maxLow>>6 + 1)
}

// isEmpty reports a zero population.
func (c *container) isEmpty() bool { return c.card == 0 }

// isFull reports the container holds every one of its 65536 keys — the
// run-encoded fast-path operand: AND returns the other side unchanged, OR
// returns full, ANDNOT by it returns empty.
func (c *container) isFull() bool {
	return c.typ == ctRun && len(c.runs) == 1 &&
		c.runs[0].start == 0 && c.runs[0].last == containerSpan-1
}

// maxLow returns the largest set low value; the container must be non-empty.
func (c *container) maxLow() int {
	switch c.typ {
	case ctArray:
		return int(c.arr[len(c.arr)-1])
	case ctRun:
		return int(c.runs[len(c.runs)-1].last)
	default:
		for w := len(c.bmp) - 1; w >= 0; w-- {
			if c.bmp[w] != 0 {
				return w<<6 + 63 - bits.LeadingZeros64(c.bmp[w])
			}
		}
		return 0
	}
}

// ensureOwned deep-copies the payload when it is shared with another Set
// (post-Clone), so in-place mutation never leaks into the sibling.
func (c *container) ensureOwned() {
	if !c.cow {
		return
	}
	switch c.typ {
	case ctArray:
		c.arr = append([]uint16(nil), c.arr...)
	case ctBitmap:
		c.bmp = append([]uint64(nil), c.bmp...)
	case ctRun:
		c.runs = append([]interval(nil), c.runs...)
	}
	c.cow = false
}

// shared returns a copy of c whose payload is aliased, flagged cow so the
// copy's first mutation unshares. The receiver is NOT touched — concurrent
// readers may be running ops against it — which is sound under the package
// invariant that a Set is never mutated in place once its containers may be
// aliased (results and Clones alias; mutation goes through Clone or stays
// on privately owned Sets).
func (c *container) shared() container {
	out := *c
	out.cow = true
	return out
}

// contains reports membership of low value v.
func (c *container) contains(v uint16) bool {
	switch c.typ {
	case ctArray:
		i := searchU16(c.arr, v)
		return i < len(c.arr) && c.arr[i] == v
	case ctBitmap:
		w := int(v >> 6)
		return w < len(c.bmp) && c.bmp[w]&(1<<(v&63)) != 0
	default:
		i := searchRuns(c.runs, v)
		return i >= 0
	}
}

// searchU16 returns the smallest index with arr[i] >= v.
func searchU16(arr []uint16, v uint16) int {
	lo, hi := 0, len(arr)
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

// searchRuns returns the index of the run containing v, or -1.
func searchRuns(runs []interval, v uint16) int {
	lo, hi := 0, len(runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch {
		case runs[mid].last < v:
			lo = mid + 1
		case runs[mid].start > v:
			hi = mid
		default:
			return mid
		}
	}
	return -1
}

// add sets low value v, migrating the encoding when the array form stops
// being the smallest. Reports whether the bit was newly set.
func (c *container) add(v uint16) bool {
	switch c.typ {
	case ctArray:
		i := len(c.arr) // ascending insertion (the common order) appends
		if i > 0 && c.arr[i-1] >= v {
			i = searchU16(c.arr, v)
			if i < len(c.arr) && c.arr[i] == v {
				return false
			}
		}
		c.ensureOwned()
		c.arr = append(c.arr, 0)
		copy(c.arr[i+1:], c.arr[i:])
		c.arr[i] = v
		c.card++
		// Migrate once the dense form is smaller: the truncated bitmap
		// costs 8 bytes per word up to the max low value.
		if card := int(c.card); card > 64 && sizeArray(card) > sizeBitmap(c.maxLow()) {
			*c = c.toBitmap()
		}
		return true
	case ctBitmap:
		w := int(v >> 6)
		if w < len(c.bmp) && c.bmp[w]&(1<<(v&63)) != 0 {
			return false
		}
		c.ensureOwned()
		if w >= len(c.bmp) {
			c.bmp = append(c.bmp, make([]uint64, w+1-len(c.bmp))...)
		}
		c.bmp[w] |= 1 << (v & 63)
		c.card++
		return true
	default:
		if searchRuns(c.runs, v) >= 0 {
			return false
		}
		// Runs are built in bulk (ranges, finalizes); point mutation is
		// rare enough that decaying to the dense form is the simple,
		// always-correct move.
		*c = c.toBitmap()
		return c.add(v)
	}
}

// remove clears low value v, reporting whether it was set.
func (c *container) remove(v uint16) bool {
	switch c.typ {
	case ctArray:
		i := searchU16(c.arr, v)
		if i >= len(c.arr) || c.arr[i] != v {
			return false
		}
		c.ensureOwned()
		c.arr = append(c.arr[:i], c.arr[i+1:]...)
		c.card--
		return true
	case ctBitmap:
		w := int(v >> 6)
		if w >= len(c.bmp) || c.bmp[w]&(1<<(v&63)) == 0 {
			return false
		}
		c.ensureOwned()
		c.bmp[w] &^= 1 << (v & 63)
		c.card--
		if c.card <= 32 {
			*c = c.toArray()
		}
		return true
	default:
		if searchRuns(c.runs, v) < 0 {
			return false
		}
		*c = c.toBitmap()
		return c.remove(v)
	}
}

// toBitmap re-encodes any container as a truncated dense bitmap.
func (c *container) toBitmap() container {
	out := container{typ: ctBitmap, card: c.card}
	switch c.typ {
	case ctBitmap:
		out.bmp = append([]uint64(nil), c.bmp...)
	case ctArray:
		if len(c.arr) > 0 {
			out.bmp = make([]uint64, c.arr[len(c.arr)-1]>>6+1)
			for _, v := range c.arr {
				out.bmp[v>>6] |= 1 << (v & 63)
			}
		}
	case ctRun:
		if n := len(c.runs); n > 0 {
			out.bmp = make([]uint64, c.runs[n-1].last>>6+1)
			for _, r := range c.runs {
				wordsSetRange(out.bmp, int(r.start), int(r.last)+1)
			}
		}
	}
	return out
}

// toArray re-encodes any container as a sorted array.
func (c *container) toArray() container {
	out := container{typ: ctArray, card: c.card, arr: make([]uint16, 0, c.card)}
	switch c.typ {
	case ctArray:
		out.arr = append(out.arr, c.arr...)
	case ctBitmap:
		for wi, w := range c.bmp {
			base := wi << 6
			for w != 0 {
				out.arr = append(out.arr, uint16(base+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	case ctRun:
		for _, r := range c.runs {
			for v := int(r.start); v <= int(r.last); v++ {
				out.arr = append(out.arr, uint16(v))
			}
		}
	}
	return out
}

// wordsSetRange sets bits [lo, hi) in a word vector that already covers hi.
func wordsSetRange(words []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - uint(hi-1)&63)
	if lw == hw {
		words[lw] |= loMask & hiMask
		return
	}
	words[lw] |= loMask
	for w := lw + 1; w < hw; w++ {
		words[w] = ^uint64(0)
	}
	words[hw] |= hiMask
}

// fromWords builds a container from a dense word vector (low bits of one
// 64k span), detecting run encoding when it is the smallest — this is how a
// zone-map bulk-accepted scan lands as a run container instead of 8 KiB of
// set words. One stats pass picks the encoding, then the payload
// materializes directly into it (no intermediate bitmap copy).
func fromWords(words []uint64) container {
	card, nRuns, maxLow := wordStats(words)
	if card == 0 {
		return container{}
	}
	switch smallestEncoding(card, nRuns, maxLow) {
	case ctArray:
		out := container{typ: ctArray, card: int32(card), arr: make([]uint16, 0, card)}
		for wi, w := range words {
			base := wi << 6
			for w != 0 {
				out.arr = append(out.arr, uint16(base+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
		return out
	case ctRun:
		view := container{typ: ctBitmap, card: int32(card), bmp: words[:maxLow>>6+1]}
		return view.toRuns() // reads the view; the result owns fresh runs
	default:
		return container{typ: ctBitmap, card: int32(card),
			bmp: append(make([]uint64, 0, maxLow>>6+1), words[:maxLow>>6+1]...)}
	}
}

// wordStats walks a dense word vector once, returning its population, the
// number of runs (01 transitions, with set bit 0 of a word not counted as
// a start when it continues the previous word's run), and the highest set
// bit (-1 when empty) — the inputs of the encoding choice.
func wordStats(words []uint64) (card, nRuns, maxLow int) {
	maxLow = -1
	prevTop := false // bit 63 of the previous word
	for wi, w := range words {
		card += bits.OnesCount64(w)
		starts := bits.OnesCount64(w &^ (w << 1))
		if prevTop && w&1 != 0 {
			starts--
		}
		nRuns += starts
		prevTop = w>>63 != 0
		if w != 0 {
			maxLow = wi<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return card, nRuns, maxLow
}

// smallestEncoding picks the cheapest of the three encodings for a
// population with the given cardinality, run count, and maximum low value.
func smallestEncoding(card, nRuns, maxLow int) ctype {
	sr, sa, sb := sizeRun(nRuns), sizeArray(card), sizeBitmap(maxLow)
	if sr < sa && sr < sb {
		return ctRun
	}
	if sa <= sb {
		return ctArray
	}
	return ctBitmap
}

// toRuns re-encodes a bitmap container as runs (callers have already
// established run encoding is worthwhile).
func (c *container) toRuns() container {
	out := container{typ: ctRun, card: c.card}
	inRun := false
	start := 0
	for wi := 0; wi <= len(c.bmp); wi++ {
		var w uint64
		if wi < len(c.bmp) {
			w = c.bmp[wi]
		}
		for b := 0; b < 64; b++ {
			set := w&(1<<b) != 0
			switch {
			case set && !inRun:
				start = wi<<6 + b
				inRun = true
			case !set && inRun:
				out.runs = append(out.runs, interval{uint16(start), uint16(wi<<6 + b - 1)})
				inRun = false
			}
		}
	}
	if inRun { // run reaching the container end
		out.runs = append(out.runs, interval{uint16(start), containerSpan - 1})
	}
	return out
}

// normalize re-picks the array/bitmap encoding for an op result (run
// detection is only done at bulk-construction and Optimize time; op results
// keep runs only when the operands' run structure carried through).
func normalize(c container) container {
	if c.card == 0 {
		return container{}
	}
	if c.typ == ctRun {
		return c
	}
	want := ctBitmap
	if sizeArray(int(c.card)) <= sizeBitmap(c.maxLow()) {
		want = ctArray
	}
	if want == c.typ {
		return c
	}
	if want == ctArray {
		return c.toArray()
	}
	return c.toBitmap()
}

// optimize re-picks among all three encodings, including run detection.
func optimize(c container) container {
	if c.card == 0 {
		return container{}
	}
	b := c.toBitmap()
	_, nRuns, _ := wordStats(b.bmp)
	switch smallestEncoding(int(c.card), nRuns, c.maxLow()) {
	case ctRun:
		return b.toRuns()
	case ctArray:
		return b.toArray()
	}
	return b
}

// forEach visits every set low value ascending, offset by base; fn
// returning false stops the walk and propagates false.
func (c *container) forEach(base int, fn func(int) bool) bool {
	switch c.typ {
	case ctArray:
		for _, v := range c.arr {
			if !fn(base + int(v)) {
				return false
			}
		}
	case ctBitmap:
		for wi, w := range c.bmp {
			wb := base + wi<<6
			for w != 0 {
				if !fn(wb + bits.TrailingZeros64(w)) {
					return false
				}
				w &= w - 1
			}
		}
	default:
		for _, r := range c.runs {
			for v := int(r.start); v <= int(r.last); v++ {
				if !fn(base + v) {
					return false
				}
			}
		}
	}
	return true
}

// forEachWord visits every non-zero 64-bit word of the container ascending,
// its index offset by base words: bitmap words as stored, array and run
// words assembled on the fly (elements and runs are sorted, so everything
// landing in one word is OR-ed into a single call).
func (c *container) forEachWord(base int, fn func(wi int, w uint64)) {
	switch c.typ {
	case ctBitmap:
		for wi, w := range c.bmp {
			if w != 0 {
				fn(base+wi, w)
			}
		}
	case ctArray:
		cur, w := -1, uint64(0)
		for _, v := range c.arr {
			if wi := int(v >> 6); wi != cur {
				if w != 0 {
					fn(base+cur, w)
				}
				cur, w = wi, 0
			}
			w |= 1 << (v & 63)
		}
		if w != 0 {
			fn(base+cur, w)
		}
	default:
		cur, w := -1, uint64(0)
		for _, r := range c.runs {
			lw, hw := int(r.start>>6), int(r.last>>6)
			if lw != cur {
				if w != 0 {
					fn(base+cur, w)
				}
				cur, w = lw, 0
			}
			loMask := ^uint64(0) << (r.start & 63)
			hiMask := ^uint64(0) >> (63 - r.last&63)
			if lw == hw {
				w |= loMask & hiMask
				continue
			}
			fn(base+cur, w|loMask)
			for wi := lw + 1; wi < hw; wi++ {
				fn(base+wi, ^uint64(0))
			}
			cur, w = hw, hiMask
		}
		if w != 0 {
			fn(base+cur, w)
		}
	}
}

// nextSet returns the smallest set low value >= from, or ok=false.
func (c *container) nextSet(from int) (int, bool) {
	switch c.typ {
	case ctArray:
		if i := searchU16(c.arr, uint16(from)); i < len(c.arr) {
			return int(c.arr[i]), true
		}
	case ctBitmap:
		wi := from >> 6
		if wi < len(c.bmp) {
			if w := c.bmp[wi] >> (uint(from) & 63); w != 0 {
				return from + bits.TrailingZeros64(w), true
			}
			for wi++; wi < len(c.bmp); wi++ {
				if c.bmp[wi] != 0 {
					return wi<<6 + bits.TrailingZeros64(c.bmp[wi]), true
				}
			}
		}
	default:
		for _, r := range c.runs {
			if int(r.last) < from {
				continue
			}
			if int(r.start) >= from {
				return int(r.start), true
			}
			return from, true
		}
	}
	return 0, false
}

// sizeBytes returns the container's serialized footprint — payload bytes
// plus the per-container metadata word (high key, type, cardinality), the
// same convention roaring's size accounting uses. Go object headers are
// excluded on both sides of the dense-vs-compressed comparison, so the
// ratio measures the representations, not the runtime.
func (c *container) sizeBytes() int64 {
	const header = 8
	switch c.typ {
	case ctArray:
		return header + int64(2*len(c.arr))
	case ctBitmap:
		return header + int64(8*len(c.bmp))
	default:
		return header + int64(4*len(c.runs))
	}
}
