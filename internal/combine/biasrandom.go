package combine

import (
	"math/rand"

	"hypre/internal/bitset"
	"hypre/internal/hypre"
)

// BiasRandomResult is one run of Bias-Random-Selection: the applicable
// combinations it found (Valid) and the number of combinations it tried
// that returned nothing (Invalid) — the axes of Figs. 35/36.
type BiasRandomResult struct {
	Records Records
	Valid   int
	Invalid int
}

// BiasRandom is Algorithm 5: starting from each preference in turn, it
// repeatedly picks another preference from the remaining list with a biased
// coin flip — preferences with higher intensity are proportionally more
// likely to be chosen — and AND-extends the current combination while it
// stays applicable. When an extension fails, the previous combination is
// recorded and the outer loop restarts from the next anchor.
//
// bias >= 0 shifts selection pressure: 0 is uniform, larger values weight
// high-intensity preferences more. The input must be sorted descending by
// intensity. The run is deterministic for a given rng seed.
//
// The current combination's tuple bitmap rides along, so each
// applicability probe is one word-parallel intersection against the
// candidate's predicate set rather than a re-evaluation of the whole
// conjunction.
func BiasRandom(prefs []hypre.ScoredPred, ev *Evaluator, rng *rand.Rand, bias float64) (BiasRandomResult, error) {
	var res BiasRandomResult
	if bias < 0 {
		bias = 0
	}
	bms, err := ev.predSets(prefs)
	if err != nil {
		return res, err
	}
	for first := 0; first < len(prefs); first++ {
		remaining := indexListExcluding(len(prefs), first)
		// Step 1–2: find an applicable seed pair (first AND second).
		var cur Combo
		var curBM *bitset.Set
		haveSeed := false
		for len(remaining) > 0 {
			pick := flipCoin(prefs, remaining, rng, bias)
			second := remaining[pick]
			remaining = append(remaining[:pick], remaining[pick+1:]...)
			cand := bms[first].And(bms[second])
			if cand.Len() == 0 {
				res.Invalid++
				continue // Step 4 of Fig. 16: try a new second pick
			}
			cur = NewCombo(prefs[first]).And(prefs[second])
			curBM = cand
			haveSeed = true
			break
		}
		if !haveSeed {
			continue
		}
		// Steps 3–5: greedily extend while applicable.
		for len(remaining) > 0 {
			pick := flipCoin(prefs, remaining, rng, bias)
			next := remaining[pick]
			remaining = append(remaining[:pick], remaining[pick+1:]...)
			cand := curBM.And(bms[next])
			if cand.Len() == 0 {
				res.Invalid++
				break // Step 4: run the held combination, restart outer loop
			}
			cur = cur.And(prefs[next])
			curBM = cand
		}
		res.Records = append(res.Records, ev.record(cur, curBM))
		res.Valid++
	}
	return res, nil
}

func indexListExcluding(n, skip int) []int {
	out := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != skip {
			out = append(out, i)
		}
	}
	return out
}

// flipCoin picks an index into remaining, weighting each candidate by
// max(intensity, 0)^… — implemented as a softened linear weighting
// w = eps + bias*max(intensity, 0), so higher-intensity preferences win the
// coin more often, yet every candidate keeps a nonzero chance (the paper's
// "biased coin flip").
func flipCoin(prefs []hypre.ScoredPred, remaining []int, rng *rand.Rand, bias float64) int {
	const eps = 0.05
	total := 0.0
	for _, idx := range remaining {
		w := prefs[idx].Intensity
		if w < 0 {
			w = 0
		}
		total += eps + bias*w
	}
	r := rng.Float64() * total
	acc := 0.0
	for i, idx := range remaining {
		w := prefs[idx].Intensity
		if w < 0 {
			w = 0
		}
		acc += eps + bias*w
		if r < acc {
			return i
		}
	}
	return len(remaining) - 1
}
