package combine

import (
	"hypre/internal/bitset"
	"hypre/internal/hypre"
)

// PartiallyCombineAll is Algorithm 4: it walks the preference list (sorted
// descending by intensity) and grows combinations under three conditions:
//
//   - Condition 1: a preference on a new attribute is AND-ed onto every
//     combination created so far (re-running them), because AND combinations
//     inflate the combined intensity.
//   - Condition 2: a preference on an already-used attribute, when the last
//     combination has no AND, is OR-ed onto the last combination only.
//   - Condition 3: a preference on an already-used attribute, when the last
//     combination does contain an AND, is (a) AND-ed onto every prior
//     combination that does not constrain the attribute yet, and (b) OR-ed
//     into the attribute's group of the last combination.
//
// The worked example of §5.3.2 (P1=venue, P2/P3=author) produces:
//
//	C1: venue=INFOCOM
//	C2: venue=INFOCOM AND aid=2222
//	C3: venue=INFOCOM AND aid=4787
//	C4: venue=INFOCOM AND (aid=2222 OR aid=4787)
//
// which this implementation reproduces (see tests). The output records
// every combination run, in run order.
//
// Each recorded combination keeps its tuple bitmap, so the AND extensions
// of Conditions 1 and 3a — the O(N·C) bulk of the algorithm — are one
// incremental intersection against the parent instead of a re-evaluation
// of the whole conjunction. OR extensions refold one group and are
// re-evaluated.
func PartiallyCombineAll(prefs []hypre.ScoredPred, ev *Evaluator) (Records, error) {
	type liveCombo struct {
		c  Combo
		bm *bitset.Set
	}
	var out Records
	var combos []liveCombo // queriesRan, in run order
	attributesUsed := map[string]bool{}

	record := func(c Combo, bm *bitset.Set) {
		out = append(out, ev.record(c, bm))
		combos = append(combos, liveCombo{c: c, bm: bm})
	}
	// runFresh evaluates the combination from its predicate sets (used for
	// the first combination and OR refolds).
	runFresh := func(c Combo) error {
		bm, err := ev.comboBitmap(c)
		if err != nil {
			return err
		}
		record(c, bm)
		return nil
	}
	// runExtend AND-extends an existing combination with one intersection.
	runExtend := func(parent liveCombo, p hypre.ScoredPred) error {
		pb, err := ev.PredBitmap(p)
		if err != nil {
			return err
		}
		record(parent.c.And(p), parent.bm.And(pb))
		return nil
	}

	for _, p := range prefs {
		attr := p.Attr
		switch {
		case len(combos) == 0:
			// First preference starts the first combination.
			if err := runFresh(NewCombo(p)); err != nil {
				return nil, err
			}
			attributesUsed[attr] = true

		case attr == "" || !attributesUsed[attr]:
			// Condition 1: a brand-new attribute is AND-ed onto every
			// combination created so far.
			snapshot := append([]liveCombo(nil), combos...)
			for _, lc := range snapshot {
				if err := runExtend(lc, p); err != nil {
					return nil, err
				}
			}
			attributesUsed[attr] = true

		default:
			last := combos[len(combos)-1]
			if !last.c.HasAnd() {
				// Condition 2: only one attribute in play; extend the last
				// combination with OR.
				if err := runFresh(last.c.Or(p)); err != nil {
					return nil, err
				}
				continue
			}
			// Condition 3a: AND onto prior combinations lacking the
			// attribute.
			snapshot := append([]liveCombo(nil), combos...)
			for _, lc := range snapshot {
				if lc.c.HasAttr(attr) {
					continue
				}
				if err := runExtend(lc, p); err != nil {
					return nil, err
				}
			}
			// Condition 3b: OR into the last original combination's group.
			if err := runFresh(last.c.Or(p)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
