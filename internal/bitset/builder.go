package bitset

// Builder assembles a Set from ascending-ordered emission — the shape of
// relstore's vectorized kernels, which walk blocks in ascending row order.
// Bits land in a dense per-container scratch (sized to the domain, at most
// 8 KiB), and each container compresses to its smallest encoding when the
// emission moves past it, so a scan's selection never materializes the full
// domain in words. Out-of-order emission (earlier containers) falls back to
// Set.Add, so correctness never depends on the ordering — only compactness
// of the fast path does.
type Builder struct {
	s       *Set
	scratch []uint64
	curKey  int32 // high key of the container being filled; -1 = none
	dirty   bool
	max     int // exclusive key bound (domain size hint)
}

// NewBuilder returns a builder for keys in [0, max). max only sizes the
// scratch buffer; emitting beyond it is still correct.
func NewBuilder(max int) *Builder {
	words := maxWords
	if max < containerSpan {
		words = (max + 63) / 64
		if words == 0 {
			words = 1
		}
	}
	return &Builder{s: New(), scratch: make([]uint64, words), curKey: -1, max: max}
}

// AppendBlock marks every key set in blk: one container switch and sixteen
// word ORs into the scratch. An empty block is a no-op; a block behind the
// emission frontier falls back to Set.Add.
func (b *Builder) AppendBlock(blk *Block) {
	if !blk.Any() {
		return
	}
	hk := int32(blk.base >> 16)
	if hk != b.curKey && !b.switchTo(hk) {
		blk.ForEach(func(i int) bool { b.s.Add(i); return true })
		return
	}
	w0 := (blk.base & 0xffff) >> 6
	for w0+blockWords > len(b.scratch) {
		b.scratch = append(b.scratch, 0)
	}
	for i, w := range blk.words {
		b.scratch[w0+i] |= w
	}
	b.dirty = true
}

// switchTo flushes the current container and moves to hk; it reports false
// when hk is behind the emission frontier (already flushed or passed).
func (b *Builder) switchTo(hk int32) bool {
	if hk < b.curKey {
		return false
	}
	b.flush()
	b.curKey = hk
	return true
}

// flush compresses the scratch into its container, run detection included.
func (b *Builder) flush() {
	if !b.dirty {
		return
	}
	c := fromWords(b.scratch)
	if !c.isEmpty() {
		// Emission frontier is ascending, and Set.Add stragglers are always
		// behind it, so appending keeps the key list sorted.
		b.s.keys = append(b.s.keys, uint32(b.curKey))
		b.s.cs = append(b.s.cs, c)
		b.s.card += int(c.card)
	}
	clear(b.scratch)
	b.dirty = false
}

// Finish flushes the pending container and returns the built set. The
// builder must not be reused afterwards.
func (b *Builder) Finish() *Set {
	b.flush()
	return b.s
}
