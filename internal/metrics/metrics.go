// Package metrics implements the evaluation metrics of §5.1 and §7.6.2 —
// preference selectivity, utility, coverage, similarity and overlap — plus
// the theoretical combination-count bounds of Propositions 3 and 4.
package metrics

import (
	"math"

	"hypre/internal/combine"
	"hypre/internal/hypre"
)

// Selectivity is Equation (5.1): the ratio between the number of tuples
// returned and the number of predicates used to enhance the base query.
func Selectivity(numTuples, numPreferences int) float64 {
	if numPreferences == 0 {
		return 0
	}
	return float64(numTuples) / float64(numPreferences)
}

// Utility is Equation (5.2): preference selectivity × combined intensity.
func Utility(selectivity, intensity float64) float64 {
	return selectivity * intensity
}

// RecordUtility computes the utility of one combination record. Per §7.1.1,
// tupleCap (the paper uses 25, "the first page") truncates the tuple count
// so that outlier combinations returning thousands of weak tuples do not
// dominate; pass 0 to disable the cap.
func RecordUtility(r combine.Record, tupleCap int) float64 {
	n := r.NumTuples
	if tupleCap > 0 && n > tupleCap {
		n = tupleCap
	}
	return Utility(Selectivity(n, r.NumPreds), r.Intensity)
}

// Coverage is Definition 18: the total number of distinct tuples "touched"
// when every preference in the list is used independently (union of the
// per-preference result sets).
func Coverage(ev *combine.Evaluator, prefs []hypre.ScoredPred) (int, error) {
	b, err := coverage(ev, prefs)
	if err != nil {
		return 0, err
	}
	return b.Len(), nil
}

// CoverageSet is Coverage returning the tuple set itself.
func CoverageSet(ev *combine.Evaluator, prefs []hypre.ScoredPred) (combine.IntSet, error) {
	b, err := coverage(ev, prefs)
	if err != nil {
		return nil, err
	}
	return b.ToIntSet(ev.Dict()), nil
}

// coverage folds the preferences' bitmaps into their union.
func coverage(ev *combine.Evaluator, prefs []hypre.ScoredPred) (*combine.Bitmap, error) {
	acc := combine.NewBitmap()
	for _, p := range prefs {
		b, err := ev.PredBitmap(p)
		if err != nil {
			return nil, err
		}
		acc = acc.Or(b)
	}
	return acc, nil
}

// Similarity is Definition 21: the percentage (0..1) of tuples common to
// the two result lists. It is normalized by the larger list, so identical
// lists score 1 and disjoint lists score 0 regardless of length skew.
func Similarity(a, b []int64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	sa := combine.NewIntSet(a)
	sb := combine.NewIntSet(b)
	common := sa.Intersect(sb).Len()
	den := sa.Len()
	if sb.Len() > den {
		den = sb.Len()
	}
	return float64(common) / float64(den)
}

// Overlap is Definition 22: restricted to the tuples common to both lists,
// the fraction that appear in the same relative order. It is computed as
// pairwise order concordance over the common subset: for every pair of
// shared tuples, do the two lists rank them the same way? 1 means the
// shared tuples are ranked identically; 0 means the order is fully
// reversed. (Pairwise concordance, unlike positional equality, does not
// collapse to 0 when a single insertion shifts every later position.)
func Overlap(a, b []int64) float64 {
	sa := combine.NewIntSet(a)
	sb := combine.NewIntSet(b)
	common := sa.Intersect(sb)
	if common.Len() == 0 {
		return 0
	}
	fa := project(a, common)
	fb := project(b, common)
	if len(fa) == 1 {
		return 1
	}
	posB := make(map[int64]int, len(fb))
	for i, v := range fb {
		posB[v] = i
	}
	agree, pairs := 0, 0
	for i := 0; i < len(fa); i++ {
		for j := i + 1; j < len(fa); j++ {
			pairs++
			if posB[fa[i]] < posB[fa[j]] {
				agree++
			}
		}
	}
	return float64(agree) / float64(pairs)
}

// project filters list to members of keep, preserving order and dropping
// duplicates after the first occurrence.
func project(list []int64, keep combine.IntSet) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, v := range list {
		if keep.Contains(v) && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// PIDs extracts the pid column from a ranked tuple list.
func PIDs(ts []combine.ScoredTuple) []int64 {
	out := make([]int64, len(ts))
	for i, t := range ts {
		out[i] = t.PID
	}
	return out
}

// AndCombinations is Proposition 3: the number of distinct preference
// combinations of N preferences under AND-only composition, 2^N − 1.
// Returns +Inf for N > 62 (beyond uint64 range; the point of the
// proposition is exactly that this explodes).
func AndCombinations(n int) float64 {
	if n < 0 {
		return 0
	}
	if n > 62 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(n)) - 1
}

// AndOrCombinations is Proposition 4: the number of combinations under AND
// and OR composition, (3^N − 1) / 2. Returns +Inf for N > 39.
func AndOrCombinations(n int) float64 {
	if n < 0 {
		return 0
	}
	if n > 39 {
		return math.Inf(1)
	}
	p := 1.0
	for i := 0; i < n; i++ {
		p *= 3
	}
	return (p - 1) / 2
}
