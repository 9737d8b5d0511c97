package bitset

import (
	"math/rand"
	"testing"
)

// shapedSet draws a set whose containers are pushed toward a specific
// encoding, with keys clustered around container boundaries (multiples of
// containerSpan ± 1) so the batch kernels cross key-merge edges, and with
// wildly lopsided cardinalities so every skip stride and gallop path runs.
func shapedSet(rng *rand.Rand, maxVal int) (*Set, refSet) {
	s := New()
	ref := refSet{}
	add := func(v int) {
		if v < 0 || v >= maxVal {
			return
		}
		s.Add(v)
		ref[v] = true
	}
	addRange := func(lo, hi int) {
		if lo < 0 {
			lo = 0
		}
		if hi > maxVal {
			hi = maxVal
		}
		if lo >= hi {
			return
		}
		s.AddRange(lo, hi)
		for v := lo; v < hi; v++ {
			ref[v] = true
		}
	}
	nContainers := 1 + maxVal/containerSpan
	for c := 0; c < nContainers; c++ {
		base := c * containerSpan
		switch rng.Intn(5) {
		case 0: // sparse array container
			for n := rng.Intn(40); n > 0; n-- {
				add(base + rng.Intn(containerSpan))
			}
		case 1: // dense enough to force a bitmap
			if rng.Intn(2) == 0 {
				for n := 0; n < 5000; n++ {
					add(base + rng.Intn(containerSpan))
				}
			}
		case 2: // run stretches
			for n := rng.Intn(4); n > 0; n-- {
				lo := base + rng.Intn(containerSpan)
				addRange(lo, lo+1+rng.Intn(3000))
			}
		case 3: // boundary-hugging singletons
			add(base - 1)
			add(base)
			add(base + 1)
			add(base + containerSpan - 1)
		case 4: // empty container (key-merge must skip it)
		}
	}
	s.Optimize()
	return s, ref
}

func refAnd(a, b refSet) refSet {
	out := refSet{}
	for v := range a {
		if b[v] {
			out[v] = true
		}
	}
	return out
}

// The batch intersection kernels sit under And/AndCard/AndInto; every
// randomized pair here crosses the array×array stride paths, the array×run
// forward merge, and bitmap×array transitions, and the results must match
// the map oracle exactly.
func TestBatchKernelShapes(t *testing.T) {
	const maxVal = 4 * containerSpan
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, ra := shapedSet(rng, maxVal)
		b, rb := shapedSet(rng, maxVal)
		want := refAnd(ra, rb)

		checkEqual(t, "And", a.And(b), want, maxVal)
		if got := a.AndCard(b); got != len(want) {
			t.Fatalf("seed %d: AndCard=%d want %d", seed, got, len(want))
		}
		dst := New()
		dst.AndInto(a, b)
		checkEqual(t, "AndInto", dst, want, maxVal)
		// a and b must be untouched by any scratch reuse.
		checkEqual(t, "And lhs intact", a, ra, maxVal)
		checkEqual(t, "And rhs intact", b, rb, maxVal)
	}
}

// Direct brute-force check of the array×run forward merges, including runs
// touching 0 and 65535 and arrays denser than the run cover.
func TestArrayRunsMergeBruteForce(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var arr []uint16
		for v := 0; v < 1<<16; v += 1 + rng.Intn(600) {
			arr = append(arr, uint16(v))
		}
		var runs []interval
		for v := rng.Intn(2000); v < 1<<16; {
			last := v + rng.Intn(4000)
			if last > 0xFFFF {
				last = 0xFFFF
			}
			runs = append(runs, interval{start: uint16(v), last: uint16(last)})
			if last >= 0xFFFF {
				break
			}
			v = last + 1 + rng.Intn(2000)
		}
		inRuns := func(v uint16) bool {
			for _, r := range runs {
				if v >= r.start && v <= r.last {
					return true
				}
			}
			return false
		}
		var want []uint16
		for _, v := range arr {
			if inRuns(v) {
				want = append(want, v)
			}
		}
		got := intersectArrayRuns(nil, arr, runs)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d values, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: [%d]=%d want %d", seed, i, got[i], want[i])
			}
		}
		if n := andCardArrayRuns(arr, runs); n != len(want) {
			t.Fatalf("seed %d: card=%d want %d", seed, n, len(want))
		}
	}
}

// ReadBlock must extract any aligned 1024-row window from any container
// encoding, and the Block word ops must behave like the per-bit oracle.
func TestBlockOpsBruteForce(t *testing.T) {
	const maxVal = 3 * containerSpan
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, ref := shapedSet(rng, maxVal)
		var blk, other Block
		for base := 0; base < maxVal; base += BlockBits {
			s.ReadBlock(base, &blk)
			var got []int
			blk.ForEach(func(i int) bool { got = append(got, i); return true })
			var want []int
			for v := base; v < base+BlockBits; v++ {
				if ref[v] {
					want = append(want, v)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d base %d: %d rows, want %d", seed, base, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d base %d: row %d want %d", seed, base, got[i], want[i])
				}
			}
			if blk.Any() != (len(want) > 0) {
				t.Fatalf("seed %d base %d: Any=%v with %d rows", seed, base, blk.Any(), len(want))
			}

			other.Reset(base)
			lo, hi := base+rng.Intn(BlockBits), base+rng.Intn(BlockBits)
			if lo > hi {
				lo, hi = hi, lo
			}
			other.SetRange(lo, hi)
			member := func(b *Block, v int) bool {
				found := false
				b.ForEach(func(i int) bool {
					if i == v {
						found = true
						return false
					}
					return true
				})
				return found
			}
			and, or, andNot := blk, blk, blk
			and.And(&other)
			or.Or(&other)
			andNot.AndNot(&other)
			n := base + rng.Intn(BlockBits+1)
			not := blk
			not.Not(n)
			for probe := 0; probe < 40; probe++ {
				v := base + rng.Intn(BlockBits)
				inS, inR := ref[v], v >= lo && v < hi
				if member(&and, v) != (inS && inR) {
					t.Fatalf("seed %d: And wrong at %d", seed, v)
				}
				if member(&or, v) != (inS || inR) {
					t.Fatalf("seed %d: Or wrong at %d", seed, v)
				}
				if member(&andNot, v) != (inS && !inR) {
					t.Fatalf("seed %d: AndNot wrong at %d", seed, v)
				}
				if member(&not, v) != (!inS && v < n) {
					t.Fatalf("seed %d: Not(%d) wrong at %d", seed, n, v)
				}
			}
		}
	}
}
