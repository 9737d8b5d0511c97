package bitset

import (
	"math/rand"
	"testing"
)

// refSet is the oracle: a plain map of set keys.
type refSet map[int]bool

func (r refSet) slice(max int) []int {
	var out []int
	for i := 0; i < max; i++ {
		if r[i] {
			out = append(out, i)
		}
	}
	return out
}

// checkEqual verifies s against the oracle via Len, Contains, ForEach and
// NextSet.
func checkEqual(t *testing.T, tag string, s *Set, ref refSet, max int) {
	t.Helper()
	want := ref.slice(max)
	if s.Len() != len(want) {
		t.Fatalf("%s: Len=%d want %d", tag, s.Len(), len(want))
	}
	var got []int
	s.ForEach(func(i int) bool { got = append(got, i); return true })
	if len(got) != len(want) {
		t.Fatalf("%s: ForEach visited %d keys, want %d", tag, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: ForEach[%d]=%d want %d", tag, i, got[i], want[i])
		}
	}
	// Spot-check Contains and NextSet around every set key and a few gaps.
	for _, k := range want {
		if !s.Contains(k) {
			t.Fatalf("%s: Contains(%d)=false", tag, k)
		}
		if n, ok := s.NextSet(k); !ok || n != k {
			t.Fatalf("%s: NextSet(%d)=%d,%v want itself", tag, k, n, ok)
		}
	}
	prev := -1
	for _, k := range want {
		if n, ok := s.NextSet(prev + 1); !ok || n != k {
			t.Fatalf("%s: NextSet(%d)=%d,%v want %d", tag, prev+1, n, ok, k)
		}
		prev = k
	}
	if n, ok := s.NextSet(prev + 1); ok {
		t.Fatalf("%s: NextSet past max returned %d", tag, n)
	}
	if m, ok := s.Max(); len(want) > 0 && (!ok || m != want[len(want)-1]) {
		t.Fatalf("%s: Max=%d,%v want %d", tag, m, ok, want[len(want)-1])
	}
}

// genSet builds a random set + oracle with shapes that exercise all three
// encodings and the container boundary: point keys, dense clusters, bulk
// ranges, keys straddling multiples of 65536.
func genSet(rng *rand.Rand, max int) (*Set, refSet) {
	s, ref := New(), refSet{}
	add := func(i int) {
		if i >= 0 && i < max {
			s.Add(i)
			ref[i] = true
		}
	}
	// Sparse points.
	for n := rng.Intn(200); n > 0; n-- {
		add(rng.Intn(max))
	}
	// Dense cluster (forces array→bitmap transitions).
	if rng.Intn(2) == 0 {
		base := rng.Intn(max)
		for n := 600 + rng.Intn(600); n > 0; n-- {
			add(base + rng.Intn(2048))
		}
	}
	// Bulk ranges (run containers), some straddling container boundaries.
	for n := rng.Intn(3); n > 0; n-- {
		lo := rng.Intn(max)
		hi := min(lo+rng.Intn(5000), max)
		s.AddRange(lo, hi)
		for i := lo; i < hi; i++ {
			ref[i] = true
		}
	}
	// Boundary keys.
	for _, b := range []int{containerSpan - 1, containerSpan, containerSpan + 1, 2*containerSpan - 1} {
		if rng.Intn(3) == 0 {
			add(b)
		}
	}
	// Some removals.
	for n := rng.Intn(100); n > 0; n-- {
		i := rng.Intn(max)
		s.Remove(i)
		delete(ref, i)
	}
	return s, ref
}

// TestSetOpsAgainstReference is the randomized equivalence suite: every set
// operation must agree with the map oracle across mixed encodings,
// container-boundary keys, and array/bitmap/run transitions.
func TestSetOpsAgainstReference(t *testing.T) {
	const max = 3 * containerSpan
	rng := rand.New(rand.NewSource(7))
	scratch := New()
	for trial := 0; trial < 60; trial++ {
		a, ra := genSet(rng, max)
		b, rb := genSet(rng, max)
		checkEqual(t, "a", a, ra, max)
		checkEqual(t, "b", b, rb, max)

		and, or, andNot := refSet{}, refSet{}, refSet{}
		card := 0
		for k := range ra {
			if rb[k] {
				and[k] = true
				card++
			} else {
				andNot[k] = true
			}
			or[k] = true
		}
		for k := range rb {
			or[k] = true
		}
		checkEqual(t, "and", a.And(b), and, max)
		checkEqual(t, "or", a.Or(b), or, max)
		checkEqual(t, "andnot", a.AndNot(b), andNot, max)
		if got := a.AndCard(b); got != card {
			t.Fatalf("trial %d: AndCard=%d want %d", trial, got, card)
		}
		if got := a.Intersects(b); got != (card > 0) {
			t.Fatalf("trial %d: Intersects=%v want %v", trial, got, card > 0)
		}
		// Symmetry.
		checkEqual(t, "and-sym", b.And(a), and, max)
		if b.AndCard(a) != card || b.Intersects(a) != (card > 0) {
			t.Fatalf("trial %d: asymmetric AndCard/Intersects", trial)
		}

		// AndInto scratch reuse: repeated use of one scratch set (the PEPS
		// chain discipline) must keep agreeing with And.
		scratch.AndInto(a, b)
		checkEqual(t, "andinto", scratch, and, max)
		scratch.AndInto(b, a)
		checkEqual(t, "andinto-sym", scratch, and, max)

		// In-place difference on a private copy.
		nc := a.Clone()
		nc.AndNotWith(b)
		checkEqual(t, "andnotwith", nc, andNot, max)

		// Retain a pseudo-random filter.
		kept := refSet{}
		for k := range ra {
			if k%3 != 0 {
				kept[k] = true
			}
		}
		rs := a.Clone()
		rs.Retain(func(i int) bool { return i%3 != 0 })
		checkEqual(t, "retain", rs, kept, max)

		// The originals must be untouched by everything above.
		checkEqual(t, "a-post", a, ra, max)
		checkEqual(t, "b-post", b, rb, max)
	}
}

// TestCloneCopyOnWrite proves the delta-maintenance discipline: patching a
// clone never leaks into the original, across all encodings.
func TestCloneCopyOnWrite(t *testing.T) {
	const max = 2 * containerSpan
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		a, ra := genSet(rng, max)
		c := a.Clone()
		rc := refSet{}
		for k, v := range ra {
			rc[k] = v
		}
		for n := 0; n < 300; n++ {
			i := rng.Intn(max)
			if rng.Intn(2) == 0 {
				c.Add(i)
				rc[i] = true
			} else {
				c.Remove(i)
				delete(rc, i)
			}
		}
		checkEqual(t, "clone", c, rc, max)
		checkEqual(t, "orig", a, ra, max)

		// A second-generation clone patched again still leaves both
		// ancestors intact (the cache swaps clones in repeatedly).
		g := c.Clone()
		rg := refSet{}
		for k, v := range rc {
			rg[k] = v
		}
		for n := 0; n < 100; n++ {
			i := rng.Intn(max)
			g.Add(i)
			rg[i] = true
		}
		checkEqual(t, "grandclone", g, rg, max)
		checkEqual(t, "clone-post", c, rc, max)
		checkEqual(t, "orig-post", a, ra, max)
	}
}

// TestWordsRoundTrip proves FromWords and ForEachWord are exact inverses
// over the dense selection-vector view, including run-detected and
// boundary shapes.
func TestWordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		nWords := 1 + rng.Intn(3*maxWords)
		words := make([]uint64, nWords)
		switch trial % 3 {
		case 0: // sparse
			for n := rng.Intn(64); n > 0; n-- {
				i := rng.Intn(nWords * 64)
				words[i>>6] |= 1 << (uint(i) & 63)
			}
		case 1: // dense runs
			for n := 1 + rng.Intn(4); n > 0; n-- {
				lo := rng.Intn(nWords * 64)
				hi := min(lo+1+rng.Intn(20000), nWords*64)
				wordsSetRange(words, lo, hi)
			}
		default: // noise
			for i := range words {
				if rng.Intn(3) == 0 {
					words[i] = rng.Uint64()
				}
			}
		}
		s := FromWords(words)
		card := 0
		ref := refSet{}
		for i := 0; i < nWords*64; i++ {
			if words[i>>6]&(1<<(uint(i)&63)) != 0 {
				ref[i] = true
				card++
			}
		}
		checkEqual(t, "fromwords", s, ref, nWords*64)
		back := make([]uint64, nWords)
		s.ForEachWord(func(wi int, w uint64) { back[wi] = w })
		for i := range words {
			if back[i] != words[i] {
				t.Fatalf("trial %d: ForEachWord word %d = %#x want %#x", trial, i, back[i], words[i])
			}
		}
	}
}

// TestBuilderMatchesAdds proves the ascending builder (the kernel emission
// path) produces the same set as point Adds, including bulk ranges that
// should land as run containers, whole appended Blocks (the scan drain's
// shape, at or behind the frontier) and out-of-order stragglers.
func TestBuilderMatchesAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// appendRange emits [lo, hi) as one block per BlockBits window.
	appendRange := func(b *Builder, lo, hi int) {
		var blk Block
		for lo < hi {
			blk.Reset(lo &^ (BlockBits - 1))
			blk.SetRange(lo, hi)
			b.AppendBlock(&blk)
			lo = blk.base + BlockBits
		}
	}
	for trial := 0; trial < 40; trial++ {
		max := 1000 + rng.Intn(3*containerSpan)
		b := NewBuilder(max)
		ref := refSet{}
		pos := 0
		for pos < max {
			switch rng.Intn(5) {
			case 3: // whole block, aligned at or behind the frontier
				var blk Block
				blk.Reset(rng.Intn(pos+1) &^ (BlockBits - 1))
				for c := rng.Intn(200); c > 0; c-- {
					if i := blk.base + rng.Intn(BlockBits); i < max {
						blk.Set(i)
						ref[i] = true
					}
				}
				b.AppendBlock(&blk)
			case 0: // ascending point
				appendRange(b, pos, pos+1)
				ref[pos] = true
				pos += 1 + rng.Intn(500)
			case 1: // block range (zone-map bulk-accept shape)
				hi := min(pos+1024, max)
				appendRange(b, pos, hi)
				for i := pos; i < hi; i++ {
					ref[i] = true
				}
				pos = hi + rng.Intn(2000)
			case 2: // out-of-order straggler
				i := rng.Intn(pos + 1)
				appendRange(b, i, i+1)
				ref[i] = true
			default:
				pos += rng.Intn(4000)
			}
		}
		s := b.Finish()
		checkEqual(t, "builder", s, ref, max)
	}
}

// TestFullRunShortCircuit pins the container-level fast paths: ops against
// a full run container must not degrade to elementwise work and must stay
// correct, including when the result aliases an operand copy-on-write.
func TestFullRunShortCircuit(t *testing.T) {
	full := New()
	full.AddRange(0, containerSpan)
	if full.Len() != containerSpan {
		t.Fatalf("full len=%d", full.Len())
	}
	sparse := New()
	for i := 0; i < 100; i++ {
		sparse.Add(i * 131)
	}
	and := sparse.And(full)
	if and.Len() != sparse.Len() || !and.Contains(99*131) {
		t.Fatalf("full∩sparse len=%d want %d", and.Len(), sparse.Len())
	}
	if got := full.AndCard(sparse); got != sparse.Len() {
		t.Fatalf("AndCard=%d", got)
	}
	if !full.Intersects(sparse) {
		t.Fatal("Intersects(full, sparse)=false")
	}
	or := full.Or(sparse)
	if or.Len() != containerSpan {
		t.Fatalf("full∪sparse len=%d", or.Len())
	}
	if diff := sparse.AndNot(full); diff.Len() != 0 {
		t.Fatalf("sparse∖full len=%d", diff.Len())
	}
	// Mutating an aliased result must not write through to the operand.
	and.Add(5)
	if sparse.Contains(5) {
		t.Fatal("aliased result mutation leaked into operand")
	}
}

// TestSizeBytesAdaptive pins the memory story the refactor exists for: a
// sparse set must cost near its cardinality, a bulk range must collapse to
// runs, and a dense set must not exceed the plain word-vector footprint by
// more than the fixed container overhead.
func TestSizeBytesAdaptive(t *testing.T) {
	sparse := New()
	for i := 0; i < 50; i++ {
		sparse.Add(i * 997)
	}
	if got := sparse.SizeBytes(); got > 1024 {
		t.Fatalf("sparse 50-key set costs %d bytes", got)
	}

	run := New()
	run.AddRange(0, 60000)
	if got := run.SizeBytes(); got > 256 {
		t.Fatalf("single-range set costs %d bytes", got)
	}

	dense := New()
	for i := 0; i < 4000; i++ {
		if i%2 == 0 {
			dense.Add(i)
		}
	}
	denseWords := int64((4000/64 + 1) * 8)
	if got := dense.SizeBytes(); got > denseWords+256 {
		t.Fatalf("alternating dense set costs %d bytes (dense words %d)", got, denseWords)
	}
}

// TestEncodingTransitions drives one container through array → bitmap →
// array and into run form, checking exactness at each step.
func TestEncodingTransitions(t *testing.T) {
	s := New()
	ref := refSet{}
	// Fill densely enough to force bitmap.
	for i := 0; i < 6000; i++ {
		s.Add(i)
		ref[i] = true
	}
	checkEqual(t, "dense", s, ref, containerSpan)
	// Shrink back down: bitmap → array on remove.
	for i := 40; i < 6000; i++ {
		s.Remove(i)
		delete(ref, i)
	}
	checkEqual(t, "shrunk", s, ref, containerSpan)
	// Optimize a striped shape into its best encoding without changing it.
	s.AddRange(1000, 30000)
	for i := 1000; i < 30000; i++ {
		ref[i] = true
	}
	s.Optimize()
	checkEqual(t, "optimized", s, ref, containerSpan)
}
