package combine

import (
	"cmp"
	"math"
	"slices"

	"hypre/internal/hypre"
)

// Variant selects between the Complete and Approximate PEPS algorithms
// (§5.5.1 / §5.5.2).
type Variant int

const (
	// Complete keeps every pair that could still beat the anchor's
	// intensity given enough extra predicates (Proposition 6's optimistic
	// bound) — no combination is lost.
	Complete Variant = iota
	// Approximate keeps only pairs whose combined intensity already exceeds
	// the anchor's, trading possible misses for speed.
	Approximate
)

// String names the variant.
func (v Variant) String() string {
	if v == Complete {
		return "complete"
	}
	return "approximate"
}

// ScoredTuple is one ranked result tuple.
type ScoredTuple struct {
	PID       int64
	Intensity float64
}

// TopKResult is the output of PEPS: up to K tuples in descending assigned
// intensity, plus work counters for the efficiency experiments.
type TopKResult struct {
	Tuples []ScoredTuple
	// CombosExpanded counts the multi-predicate combinations generated.
	CombosExpanded int
	// AnchorsUsed counts how many profile preferences seeded expansion
	// before K tuples were collected.
	AnchorsUsed int
}

// maxChainExpansions bounds DFS expansion for safety on adversarial
// profiles (the worst case is exponential, Proposition 3); the limit never
// triggers on the dissertation's workload sizes.
const maxChainExpansions = 200000

// topTracker incrementally maintains, per tuple, the best combined
// intensity among the combinations that returned it — the structure the
// old implementation rebuilt from scratch (collect + full sort) on every
// anchor boundary. best is dense over the evaluator's pid dictionary;
// unset entries are -1 (valid intensities are >= 0).
type topTracker struct {
	dict *PidDict
	best []float64
	n    int // distinct tuples seen
}

func newTopTracker(dict *PidDict) *topTracker {
	best := make([]float64, dict.Size())
	for i := range best {
		best[i] = -1
	}
	return &topTracker{dict: dict, best: best}
}

// update credits every tuple of bm with intensity if it beats the tuple's
// current best.
func (t *topTracker) update(bm *Bitmap, intensity float64) {
	bm.ForEach(func(i int) {
		if t.best[i] < intensity {
			if t.best[i] < 0 {
				t.n++
			}
			t.best[i] = intensity
		}
	})
}

// kth returns the k-th highest best intensity and the number of distinct
// tuples collected so far; the intensity is -1 when fewer than k tuples
// exist. A bounded min-heap of size k replaces the old full sort.
func (t *topTracker) kth(k int) (float64, int) {
	if t.n < k {
		return -1, t.n
	}
	heap := make([]float64, 0, k)
	for _, v := range t.best {
		if v < 0 {
			continue
		}
		if len(heap) < k {
			heap = append(heap, v)
			siftUp(heap, len(heap)-1)
		} else if v > heap[0] {
			heap[0] = v
			siftDown(heap, 0)
		}
	}
	return heap[0], t.n
}

// tuples materializes the ranked result: (intensity desc, pid asc),
// truncated at limit — the same order collectTuples produced. Only tuples at
// or above the limit-th intensity can be in it (all of them when fewer than
// limit were credited, kth's -1), so only those are copied and sorted.
func (t *topTracker) tuples(limit int) []ScoredTuple {
	kth, _ := t.kth(limit)
	out := make([]ScoredTuple, 0, min(limit, t.n))
	for i, v := range t.best {
		if v >= max(kth, 0) {
			out = append(out, ScoredTuple{PID: t.dict.PID(i), Intensity: v})
		}
	}
	sortScoredTuples(out)
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}

// sortScoredTuples orders by (intensity desc, pid asc).
func sortScoredTuples(out []ScoredTuple) {
	slices.SortFunc(out, func(a, b ScoredTuple) int {
		if c := cmp.Compare(b.Intensity, a.Intensity); c != 0 {
			return c
		}
		return cmp.Compare(a.PID, b.PID)
	})
}

func siftUp(h []float64, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []float64, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l] < h[m] {
			m = l
		}
		if r < len(h) && h[r] < h[m] {
			m = r
		}
		if m == i {
			return
		}
		h[m], h[i] = h[i], h[m]
		i = m
	}
}

// PEPS is the Practical and Efficient Preference Selection algorithm
// (Algorithm 6): using the pre-computed pair table, it expands applicable
// AND chains anchored at each profile preference in descending-intensity
// order, accumulates the resulting combinations, and returns the first k
// distinct tuples ranked by combined intensity. Single preferences
// participate as 1-predicate combinations so flooding/starvation cases
// still fill K.
//
// The DFS is incremental: each step extends the parent chain's tuple
// bitmap with exactly one word-parallel intersection (replacing the old
// Applicable + Run double evaluation, each of which recomputed the full
// conjunction from scratch), and carries the chain's Π(1−pᵢ) product so
// the combined intensity needs one multiplication per step while staying
// bit-identical to FAndAll over the member list. Tuple credits flow into
// an incrementally maintained best-intensity map, so the anchor-boundary
// early-exit check no longer rebuilds and sorts the full result set.
func PEPS(prefs []hypre.ScoredPred, pt *PairTable, ev *Evaluator, k int, variant Variant) (TopKResult, error) {
	var res TopKResult
	if k <= 0 || len(prefs) == 0 {
		return res, nil
	}

	// One relational query per predicate, then everything below is pure
	// bitmap algebra over the shared dictionary.
	bms := make([]*Bitmap, len(prefs))
	for i, p := range prefs {
		b, err := ev.PredBitmap(p)
		if err != nil {
			return res, err
		}
		bms[i] = b
	}

	// suffixBound[a] = f∧ over prefs[a:] — the best intensity any chain
	// anchored at or after a can reach (all intensities are >= 0 in the
	// positive profile).
	suffixBound := make([]float64, len(prefs)+1)
	prod := 1.0
	for a := len(prefs) - 1; a >= 0; a-- {
		p := prefs[a].Intensity
		if p < 0 {
			p = 0
		}
		prod *= 1 - p
		suffixBound[a] = 1 - prod
	}

	tr := newTopTracker(ev.dict)
	expansions := 0

	// Per-depth scratch bitmaps for the chain DFS (one live chain per
	// depth), shared across anchors so steady-state expansion allocates
	// nothing.
	var scratch []*Bitmap
	scratchAt := func(depth int) *Bitmap {
		for len(scratch) <= depth {
			scratch = append(scratch, NewBitmap())
		}
		return scratch[depth]
	}

	// Singles participate with their own intensity (f∧ of one member).
	for i := range prefs {
		if bms[i].Len() > 0 {
			tr.update(bms[i], 1-(1-prefs[i].Intensity))
		}
	}

	for a := 0; a < len(prefs); a++ {
		res.AnchorsUsed = a + 1
		anchor := prefs[a].Intensity

		// Working set: pairs anchored at a, filtered per variant.
		var seeds []PairEntry
		for _, e := range pt.CombsOfTwo(a) {
			switch variant {
			case Approximate:
				if e.Intensity <= anchor {
					continue
				}
			case Complete:
				// Keep the pair if enough remaining preferences could lift
				// it past the anchor (Proposition 6, with the weaker
				// member's intensity as the per-step gain).
				if e.Intensity <= anchor {
					need := hypre.MinPreferencesToExceed(anchor, pt.Prefs[e.J].Intensity)
					if math.IsInf(need, 1) || need > float64(len(prefs)-2) {
						continue
					}
				}
			}
			seeds = append(seeds, e)
		}

		// DFS expansion: a chain i1 < i2 < ... where every consecutive pair
		// is in the table and the whole conjunction stays applicable. Every
		// applicable chain credits the tracker — not just maximal ones — so
		// a tuple that drops out of a longer extension still gets credited
		// with the f∧ of exactly the preferences it matches (this is what
		// keeps PEPS's assigned intensities equal to TA's aggregates on
		// quantitative-only profiles, §7.6.3). Each frame receives the
		// parent's tuple bitmap and Π(1−pᵢ) product; extending the chain is
		// one AND and one multiply, into a per-depth scratch bitmap (one
		// live chain per depth), so expansion allocates nothing in steady
		// state.
		var dfs func(last int, bm *Bitmap, depth int, prod float64) error
		dfs = func(last int, bm *Bitmap, depth int, prod float64) error {
			if expansions >= maxChainExpansions {
				return nil
			}
			expansions++
			tr.update(bm, 1-prod)
			res.CombosExpanded++
			for _, e := range pt.CombsOfTwo(last) {
				next := e.J
				child := scratchAt(depth)
				child.AndInto(bm, bms[next])
				if child.Len() == 0 {
					continue
				}
				if err := dfs(next, child, depth+1, prod*(1-prefs[next].Intensity)); err != nil {
					return err
				}
			}
			return nil
		}
		for _, e := range seeds {
			seed := scratchAt(0)
			seed.AndInto(bms[e.I], bms[e.J])
			seedProd := (1 - prefs[e.I].Intensity) * (1 - prefs[e.J].Intensity)
			if err := dfs(e.J, seed, 1, seedProd); err != nil {
				return res, err
			}
		}

		// Early exit: if k tuples are already collected and no chain
		// anchored later can beat the current k-th intensity, stop.
		if kth, n := tr.kth(k); n >= k && a+1 < len(prefs) && suffixBound[a+1] <= kth {
			break
		}
	}

	res.Tuples = tr.tuples(k)
	return res, nil
}
