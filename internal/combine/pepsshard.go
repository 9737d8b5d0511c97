package combine

import (
	"math"
	"math/bits"
	"slices"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
)

// This file is PEPS over preference-signature classes. Two tuples matched by
// exactly the same subset of the profile's predicates (the same signature)
// are indistinguishable to PEPS: every chain credits both or neither, so they
// end with the same intensity. The kernel therefore partitions the credited
// tuples into signature classes once, and runs the chain DFS on one flat
// word mask over class ids per preference instead of on the tuple bitmaps: a
// chain step is a word-wise AND over ⌈classes/64⌉ words, a credit walks the
// set bits of a mask, and a class of w tuples counts w times wherever the
// serial algorithm counts tuples (the credited total, the k-th intensity).
// A profile distinguishes far fewer classes than it credits tuples (~1.5k
// against ~28k on the 32k-paper benchmark store), which is where the time
// goes. Tuples reappear only at the end: one pass over the class assignment
// keeps those whose class reached the k-th intensity, and only they are
// sorted.
//
// Anchors are barriers, as in the serial algorithm: after each one the
// weighted k-th intensity is folded so the anchor-boundary early exit fires
// at exactly the same anchor. A chain whose optimistic extension bound (its
// product against the remaining preferences' headroom) cannot reach the k-th
// intensity proven at the last barrier is dead and is not expanded —
// strictly-below credits cannot alter the final top-k list, so Tuples and
// AnchorsUsed stay byte-identical to PEPS (the equivalence suites enforce
// it; see the cap caveat on PEPSSharded).
//
// Fan-out is over contiguous word ranges of the class universe: a chain's
// class set is the disjoint union of its range-restricted intersections, so
// each range runs the full anchor expansion on its own words and credits
// only its own classes. A universe splits only into ranges of at least
// minShardWords words; below two such ranges the per-anchor goroutine
// hand-off costs more than the DFS it would divide, and the run is serial.
//
// PEPS itself deliberately does not share this kernel: it stays the
// tuple-level oracle PEPSSharded is checked against.

// minShardWords is the smallest class-mask word range worth a worker of its
// own (64 words = 4096 classes).
const minShardWords = 64

// classPartition is the signature-class view of a family of sets over one
// dense id universe.
type classPartition struct {
	classOf []int32    // dense id -> class id; -1 for ids in no set
	weight  []int      // class id -> number of member ids
	masks   [][]uint64 // per set: bit c is set iff class c lies inside the set
}

// classify partitions the ids of a universe by which of the sets contain
// them, by partition refinement: every id starts in the root class ("in no
// set so far"), and set i moves each of its ids from its current class into
// that class's child for i, created on first use — O(Σ|set|), no hashing. A
// class left without members is dead; the survivors are numbered compactly
// in creation order, which is fixed by the order of sets and of ids within
// them. A surviving class's members lie in exactly the sets that created it
// and its ancestors, which is what the masks record.
func classify(sets []*bitset.Set, universe int) classPartition {
	// sig is one node of the refinement tree; stamp == i marks child as the
	// class's child for set i.
	type sig struct{ parent, born, stamp, child int32 }
	classOf := make([]int32, universe) // refinement-tree node ids until the final pass
	tree := []sig{{parent: -1, born: -1, stamp: -1}}
	for i, s := range sets {
		// Set i gives each node at most one child; with room for them all the
		// tree does not move while ids do.
		tree = slices.Grow(tree, len(tree))
		s.ForEach(func(id int) bool {
			from := classOf[id]
			c := &tree[from]
			if c.stamp != int32(i) {
				c.stamp, c.child = int32(i), int32(len(tree))
				tree = append(tree, sig{parent: from, born: int32(i), stamp: -1})
			}
			classOf[id] = c.child
			return true
		})
	}

	size := make([]int, len(tree))
	for _, c := range classOf {
		size[c]++
	}
	compact := make([]int32, len(tree))
	var weight []int
	for c, n := range size {
		compact[c] = -1
		if c > 0 && n > 0 {
			compact[c] = int32(len(weight))
			weight = append(weight, n)
		}
	}
	words := (len(weight) + 63) / 64
	flat := make([]uint64, len(sets)*words)
	masks := make([][]uint64, len(sets))
	for i := range masks {
		masks[i] = flat[i*words : (i+1)*words]
	}
	for c, cc := range compact {
		if cc >= 0 {
			for a := int32(c); a != 0; a = tree[a].parent {
				masks[tree[a].born][cc>>6] |= 1 << (cc & 63)
			}
		}
	}
	for id, c := range classOf {
		classOf[id] = compact[c]
	}
	return classPartition{classOf: classOf, weight: weight, masks: masks}
}

// classShard is one word range of the class universe: views of every
// preference mask, of the best-intensity tracker and of the class weights
// (all indexed from the range's first class), per-depth scratch masks, and
// the local work counters.
type classShard struct {
	masks      [][]uint64
	best       []float64 // -1 = not credited yet
	weight     []int
	n          int      // tuples credited in this range
	scratch    []uint64 // one mask per chain depth
	expansions int
	combos     int
}

func (st *classShard) scratchAt(depth int) []uint64 {
	w := len(st.masks[0])
	return st.scratch[depth*w : (depth+1)*w]
}

// andWords stores a ∩ b in dst and reports whether it is non-empty.
func andWords(dst, a, b []uint64) bool {
	a, b = a[:len(dst)], b[:len(dst)]
	var acc uint64
	for w := range dst {
		x := a[w] & b[w]
		dst[w] = x
		acc |= x
	}
	return acc != 0
}

// update credits every class of mask with intensity if it beats the class's
// current best.
func (st *classShard) update(mask []uint64, intensity float64) {
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			c := w<<6 | bits.TrailingZeros64(word)
			if st.best[c] < intensity {
				if st.best[c] < 0 {
					st.n += st.weight[c]
				}
				st.best[c] = intensity
			}
		}
	}
}

// expandAnchor runs one anchor's seeds to exhaustion within this range.
// kthLB is the k-th best intensity proven at the last anchor barrier (-1
// before k tuples exist): chains whose optimistic bound cannot strictly
// reach it are dead.
func (st *classShard) expandAnchor(prefs []hypre.ScoredPred, pairs [][]PairEntry,
	seeds []PairEntry, tailProd []float64, kthLB float64) {
	var dfs func(last int, mask []uint64, depth int, prod float64)
	dfs = func(last int, mask []uint64, depth int, prod float64) {
		if st.expansions >= maxChainExpansions {
			return
		}
		// Branch-dead early exit: 1 − prod·tailProd[last+1] bounds the
		// intensity of every extension of this chain (the chain itself
		// included). Strictly below the proven k-th intensity, neither the
		// chain's credits nor any descendant's can enter the final top-k
		// list — the pid tie-break at the boundary is preserved because
		// equality is not pruned.
		if kthLB >= 0 && 1-prod*tailProd[last+1] < kthLB {
			return
		}
		st.expansions++
		st.update(mask, 1-prod)
		st.combos++
		for _, e := range pairs[last] {
			next := e.J
			child := st.scratchAt(depth)
			if !andWords(child, mask, st.masks[next]) {
				continue
			}
			dfs(next, child, depth+1, prod*(1-prefs[next].Intensity))
		}
	}
	for _, e := range seeds {
		seed := st.scratchAt(0)
		andWords(seed, st.masks[e.I], st.masks[e.J])
		seedProd := (1 - prefs[e.I].Intensity) * (1 - prefs[e.J].Intensity)
		dfs(e.J, seed, 1, seedProd)
	}
}

// weightedKth returns the k-th highest best intensity over the credited
// tuples, class c standing for weight[c] tuples at best[c]; the caller has
// checked that at least k are credited. The heap is a min-heap, by best, of
// the highest classes that together still hold k tuples — at most k entries,
// and most classes are turned away by one comparison with its root.
func weightedKth(best []float64, weight []int, k int) float64 {
	var heap []int32
	held := 0
	less := func(i, j int) bool { return best[heap[i]] < best[heap[j]] }
	for c, v := range best {
		if v < 0 || held >= k && v <= best[heap[0]] {
			continue
		}
		heap = append(heap, int32(c))
		held += weight[c]
		for i := len(heap) - 1; i > 0 && less(i, (i-1)/2); i = (i - 1) / 2 {
			heap[i], heap[(i-1)/2] = heap[(i-1)/2], heap[i]
		}
		for held-weight[heap[0]] >= k {
			held -= weight[heap[0]]
			last := len(heap) - 1
			heap[0] = heap[last]
			heap = heap[:last]
			for i := 0; ; {
				m := i
				if l := 2*i + 1; l < last && less(l, m) {
					m = l
				}
				if r := 2*i + 2; r < last && less(r, m) {
					m = r
				}
				if m == i {
					break
				}
				heap[i], heap[m] = heap[m], heap[i]
				i = m
			}
		}
	}
	return best[heap[0]]
}

// PEPSSharded is PEPS run over the profile's signature classes, fanned out
// over word ranges of the class universe, at most ev.Workers wide. Tuples and
// AnchorsUsed are byte-identical to PEPS as long as the maxChainExpansions
// safety cap does not bind: the cap is enforced per range here (and dead
// branches consume none of it), so an adversarial profile that trips the
// serial cap gets MORE complete results from this run, not the same
// truncation. CombosExpanded tallies range-local expansions (a chain empty
// in one range is pruned there even when other ranges expand it, and dead
// branches are not expanded at all), so it is comparable only between
// PEPSSharded runs of the same width.
func PEPSSharded(prefs []hypre.ScoredPred, pt *PairTable, ev *Evaluator, k int, variant Variant) (TopKResult, error) {
	var res TopKResult
	if k <= 0 || len(prefs) == 0 {
		return res, nil
	}

	sets := make([]*bitset.Set, len(prefs))
	for i, p := range prefs {
		b, err := ev.PredBitmap(p)
		if err != nil {
			return res, err
		}
		sets[i] = b.s
	}
	cp := classify(sets, ev.dict.Size())
	classes := len(cp.weight)
	words := (classes + 63) / 64
	best := make([]float64, classes)
	for c := range best {
		best[c] = -1
	}

	// suffixBound[a] = f∧ over prefs[a:], the anchor-boundary exit bound;
	// tailProd[i] = Π(1−p) over prefs[i:], the branch-dead headroom.
	suffixBound := make([]float64, len(prefs)+1)
	tailProd := make([]float64, len(prefs)+1)
	tailProd[len(prefs)] = 1
	for a := len(prefs) - 1; a >= 0; a-- {
		p := prefs[a].Intensity
		if p < 0 {
			p = 0
		}
		tailProd[a] = tailProd[a+1] * (1 - p)
		suffixBound[a] = 1 - tailProd[a]
	}

	shards := make([]*classShard, ev.workerCount(words/minShardWords))
	for si := range shards {
		lo, hi := si*words/len(shards), (si+1)*words/len(shards)
		st := &classShard{
			masks:   make([][]uint64, len(prefs)),
			best:    best[lo*64 : min(hi*64, classes)],
			weight:  cp.weight[lo*64 : min(hi*64, classes)],
			scratch: make([]uint64, len(prefs)*(hi-lo)),
		}
		for i, m := range cp.masks {
			st.masks[i] = m[lo:hi]
		}
		shards[si] = st
	}
	runShards := func(fn func(st *classShard)) {
		parallelFor(len(shards), len(shards), func(i int) { fn(shards[i]) })
	}

	// Singles participate with their own intensity (f∧ of one member); an
	// empty predicate has an empty mask and credits nothing.
	runShards(func(st *classShard) {
		for i := range prefs {
			st.update(st.masks[i], 1-(1-prefs[i].Intensity))
		}
	})

	// pairs[i] = the table's pairs whose first member is i, looked up once
	// instead of once per chain step.
	pairs := make([][]PairEntry, len(prefs))
	for i := range pairs {
		pairs[i] = pt.CombsOfTwo(i)
	}

	kthLB := -1.0
	for a := 0; a < len(prefs); a++ {
		res.AnchorsUsed = a + 1
		anchor := prefs[a].Intensity

		// Working set: pairs anchored at a, filtered per variant — global
		// state, shared read-only by every range.
		var seeds []PairEntry
		for _, e := range pairs[a] {
			switch variant {
			case Approximate:
				if e.Intensity <= anchor {
					continue
				}
			case Complete:
				if e.Intensity <= anchor {
					need := hypre.MinPreferencesToExceed(anchor, pt.Prefs[e.J].Intensity)
					if math.IsInf(need, 1) || need > float64(len(prefs)-2) {
						continue
					}
				}
			}
			seeds = append(seeds, e)
		}

		runShards(func(st *classShard) {
			st.expandAnchor(prefs, pairs, seeds, tailProd, kthLB)
		})

		// Anchor barrier: fold the k-th bound and exit exactly when the
		// serial tracker would.
		credited := 0
		for _, st := range shards {
			credited += st.n
		}
		if credited >= k {
			kthLB = weightedKth(best, cp.weight, k)
			if a+1 < len(prefs) && suffixBound[a+1] <= kthLB {
				break
			}
		}
	}

	for _, st := range shards {
		res.CombosExpanded += st.combos
	}
	// Every anchor ends at a barrier, so kthLB is the final k-th intensity
	// (-1 with fewer than k credited, when every credited tuple is kept):
	// only tuples at or above it can be in the answer.
	out := []ScoredTuple{}
	floor := max(kthLB, 0)
	for id, c := range cp.classOf {
		if c >= 0 && best[c] >= floor {
			out = append(out, ScoredTuple{PID: ev.dict.PID(id), Intensity: best[c]})
		}
	}
	sortScoredTuples(out)
	if len(out) > k {
		out = out[:k]
	}
	res.Tuples = out
	return res, nil
}
