package combine

import "hypre/internal/hypre"

// Semantics selects how Combine-Two joins a pair of predicates.
type Semantics int

const (
	// SemanticsAND joins every pair with AND (Algorithm 3).
	SemanticsAND Semantics = iota
	// SemanticsANDOR joins same-attribute pairs with OR and
	// different-attribute pairs with AND (Algorithm 2).
	SemanticsANDOR
)

// String names the semantics.
func (s Semantics) String() string {
	if s == SemanticsAND {
		return "AND"
	}
	return "AND_OR"
}

// CombineTwo is Algorithms 2 and 3: an exhaustive enumeration of
// two-preference combinations, one anchor preference at a time, each paired
// with every preference that follows it. The input list must be sorted
// descending by intensity (the paper's precondition); the output records
// every pair in anchor-major order, including inapplicable ones
// (NumTuples == 0) so the experiments can show the starvation cases of
// Figs. 29–31. Record.AnchorIndex / PartnerIndex identify the pair.
//
// Every predicate set is materialized once up front; the O(N²) pair loop
// is then one word-parallel AND (or OR) per pair.
func CombineTwo(prefs []hypre.ScoredPred, ev *Evaluator, sem Semantics) (Records, error) {
	bms := make([]*Bitmap, len(prefs))
	for i, p := range prefs {
		b, err := ev.PredBitmap(p)
		if err != nil {
			return nil, err
		}
		bms[i] = b
	}
	var out Records
	for i := 0; i < len(prefs); i++ {
		for j := i + 1; j < len(prefs); j++ {
			var c Combo
			var bm *Bitmap
			p1, p2 := prefs[i], prefs[j]
			if sem == SemanticsANDOR && p1.Attr != "" && p1.Attr == p2.Attr {
				c = NewCombo(p1).Or(p2)
				bm = bms[i].Or(bms[j])
			} else {
				c = NewCombo(p1).And(p2)
				bm = bms[i].And(bms[j])
			}
			r := ev.record(c, bm)
			r.AnchorIndex = i
			r.PartnerIndex = j
			out = append(out, r)
		}
	}
	return out, nil
}
