package bitset

import "math/bits"

// BlockBits is the number of keys one Block covers. It divides containerSpan,
// so a block never straddles two containers — extraction and publication stay
// single-container operations.
const (
	BlockBits  = 1024
	blockWords = BlockBits / 64
)

// Block is a fixed-width dense selection fragment: the keys
// [base, base+BlockBits) as 16 words. It is the unit of the block scan —
// vectorized kernels write into a Block, and the block-level set algebra
// below combines predicate subtrees word-parallel before the block is
// appended to a Builder. base must be BlockBits-aligned.
type Block struct {
	base  int
	words [blockWords]uint64
}

// Reset clears the block and re-bases it at base (BlockBits-aligned).
func (b *Block) Reset(base int) {
	b.base = base
	b.words = [blockWords]uint64{}
}

// Set sets global key i; i must lie within [base, base+BlockBits).
func (b *Block) Set(i int) {
	v := i - b.base
	b.words[v>>6] |= 1 << (uint(v) & 63)
}

// SetRange sets global keys [lo, hi), clamped to the block's window — so a
// kernel emitting a whole-block acceptance can pass the row range unclamped.
func (b *Block) SetRange(lo, hi int) {
	lo = max(lo, b.base)
	hi = min(hi, b.base+BlockBits)
	if lo < hi {
		wordsSetRange(b.words[:], lo-b.base, hi-b.base)
	}
}

// And intersects in place with o (same base).
func (b *Block) And(o *Block) {
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Or unions in place with o (same base).
func (b *Block) Or(o *Block) {
	for i := range b.words {
		b.words[i] |= o.words[i]
	}
}

// AndNot clears in place every key set in o (same base).
func (b *Block) AndNot(o *Block) {
	for i := range b.words {
		b.words[i] &^= o.words[i]
	}
}

// Not complements the block within the universe [0, n): keys at or beyond n
// stay clear (the block-local mirror of Set.Not).
func (b *Block) Not(n int) {
	for i := range b.words {
		b.words[i] = ^b.words[i]
	}
	if lim := n - b.base; lim < BlockBits {
		clearFromWords(b.words[:], max(lim, 0))
	}
}

// clearFromWords zeroes bits [from, len*64) of a word vector.
func clearFromWords(words []uint64, from int) {
	w := from >> 6
	if off := uint(from) & 63; off != 0 {
		words[w] &= (1 << off) - 1
		w++
	}
	for ; w < len(words); w++ {
		words[w] = 0
	}
}

// Any reports whether any key is set.
func (b *Block) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of set keys.
func (b *Block) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls fn for every set key in ascending order; fn returning false
// stops the walk.
func (b *Block) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		base := b.base + wi<<6
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// ReadBlock extracts s ∩ [base, base+BlockBits) into dst. Because BlockBits
// divides containerSpan the window lies inside at most one container, so the
// extraction is a word copy (bitmap), a scatter (array), or range fills
// (run) — never a container merge. The block scan uses this to apply the
// tombstone mask and the join filter one block at a time.
func (s *Set) ReadBlock(base int, dst *Block) {
	dst.Reset(base)
	ci := s.find(uint32(base) >> 16)
	if ci < 0 {
		return
	}
	c := &s.cs[ci]
	lo := base & (containerSpan - 1)
	hi := lo + BlockBits
	switch c.typ {
	case ctBitmap:
		w0 := lo >> 6
		for i := 0; i < blockWords && w0+i < len(c.bmp); i++ {
			dst.words[i] = c.bmp[w0+i]
		}
	case ctArray:
		for i := searchU16(c.arr, uint16(lo)); i < len(c.arr) && int(c.arr[i]) < hi; i++ {
			v := int(c.arr[i]) - lo
			dst.words[v>>6] |= 1 << (uint(v) & 63)
		}
	case ctRun:
		for _, r := range c.runs {
			if int(r.start) >= hi {
				break
			}
			if int(r.last) < lo {
				continue
			}
			rlo := max(int(r.start), lo)
			rhi := min(int(r.last)+1, hi)
			wordsSetRange(dst.words[:], rlo-lo, rhi-lo)
		}
	}
}
