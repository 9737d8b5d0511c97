package hypre

import (
	"sort"

	"hypre/internal/predicate"
)

// ScoredPred is one usable preference: a parsed predicate with its
// intensity and the attribute it constrains. It is the currency between the
// HYPRE graph, the combination algorithms of Chapter 5, and query
// enhancement.
type ScoredPred struct {
	Pred      string              // normalized predicate text
	P         predicate.Predicate // parsed form
	Intensity float64
	Attr      string // primary attribute ("" if the predicate spans several)
}

// NewScoredPred parses a predicate string into a ScoredPred.
func NewScoredPred(pred string, intensity float64) (ScoredPred, error) {
	p, err := predicate.Parse(pred)
	if err != nil {
		return ScoredPred{}, err
	}
	return ScoredPred{
		Pred:      p.String(),
		P:         p,
		Intensity: intensity,
		Attr:      predicate.PrimaryAttribute(p),
	}, nil
}

// Profile returns the user's usable preferences — every node with an
// intensity value — sorted descending by intensity. This is the list the
// Chapter 5 algorithms take as input.
func (h *Graph) Profile(uid int64) []ScoredPred {
	var out []ScoredPred
	for _, n := range h.UserNodes(uid) {
		if !n.HasIntensity {
			continue
		}
		sp, err := NewScoredPred(n.Predicate, n.Intensity)
		if err != nil {
			continue
		}
		out = append(out, sp)
	}
	return out
}

// PositiveProfile returns the user's preferences with strictly positive
// intensity, sorted descending — the list used to enhance queries (§4.3:
// "excluding preferences with negative values").
func (h *Graph) PositiveProfile(uid int64) []ScoredPred {
	all := h.Profile(uid)
	out := all[:0]
	for _, p := range all {
		if p.Intensity > 0 {
			out = append(out, p)
		}
	}
	return out
}

// QuantOnlyProfile returns only the preferences the user supplied directly
// as quantitative ones (intensity > 0), excluding everything HYPRE derived
// from qualitative edges — the view a quantitative-only system like
// Fagin's TA gets to see (§7.6.3).
func (h *Graph) QuantOnlyProfile(uid int64) []ScoredPred {
	var out []ScoredPred
	for _, n := range h.UserNodes(uid) {
		if !n.HasIntensity || !n.FromQuant || n.Intensity <= 0 {
			continue
		}
		sp, err := NewScoredPred(n.Predicate, n.Intensity)
		if err != nil {
			continue
		}
		out = append(out, sp)
	}
	return out
}

// NegativeProfile returns the user's negative preferences (intensity < 0),
// most negative first. Query enhancement applies them as exclusion filters.
func (h *Graph) NegativeProfile(uid int64) []ScoredPred {
	var out []ScoredPred
	for _, p := range h.Profile(uid) {
		if p.Intensity < 0 {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Intensity < out[j].Intensity })
	return out
}

// Enhanced is a preference-enhanced WHERE clause with its combined
// intensity value.
type Enhanced struct {
	Where     predicate.Predicate
	Intensity float64
	Preds     []ScoredPred
}

// Text renders the enhanced clause.
func (e Enhanced) Text() string {
	if e.Where == nil {
		return "TRUE"
	}
	return e.Where.String()
}

// EnhanceAnd combines all preferences with AND semantics (§5.3's AND
// semantics): the conjunction of every predicate, with combined intensity
// f∧ over all members (order-independent by Proposition 1).
func EnhanceAnd(prefs []ScoredPred) Enhanced {
	kids := make([]predicate.Predicate, len(prefs))
	vals := make([]float64, len(prefs))
	for i, p := range prefs {
		kids[i] = p.P
		vals[i] = p.Intensity
	}
	return Enhanced{
		Where:     predicate.NewAnd(kids...),
		Intensity: FAndAll(vals...),
		Preds:     append([]ScoredPred(nil), prefs...),
	}
}

// EnhanceOr combines all preferences with OR semantics: the disjunction of
// every predicate, intensity folded by f∨ in the given order (descending
// intensity input gives the maximal fold per Proposition 2).
func EnhanceOr(prefs []ScoredPred) Enhanced {
	kids := make([]predicate.Predicate, len(prefs))
	vals := make([]float64, len(prefs))
	for i, p := range prefs {
		kids[i] = p.P
		vals[i] = p.Intensity
	}
	return Enhanced{
		Where:     predicate.NewOr(kids...),
		Intensity: FOrSeq(vals...),
		Preds:     append([]ScoredPred(nil), prefs...),
	}
}

// EnhanceMixed implements the mixed-clause rule of §4.6: predicates on the
// same attribute are OR-ed (avoiding information starvation), predicates on
// different attributes are AND-ed (staying selective). Group order follows
// first appearance; within a group, members keep their input order. The
// combined intensity f∧-folds the per-group f∨ folds.
func EnhanceMixed(prefs []ScoredPred) Enhanced {
	type group struct {
		attr  string
		preds []ScoredPred
	}
	var groups []*group
	byAttr := map[string]*group{}
	for _, p := range prefs {
		attr := p.Attr
		if attr == "" {
			// Multi-attribute predicates form their own singleton group.
			groups = append(groups, &group{attr: "", preds: []ScoredPred{p}})
			continue
		}
		g, ok := byAttr[attr]
		if !ok {
			g = &group{attr: attr}
			byAttr[attr] = g
			groups = append(groups, g)
		}
		g.preds = append(g.preds, p)
	}
	var kids []predicate.Predicate
	var groupVals []float64
	for _, g := range groups {
		var ps []predicate.Predicate
		var vals []float64
		for _, p := range g.preds {
			ps = append(ps, p.P)
			vals = append(vals, p.Intensity)
		}
		kids = append(kids, predicate.NewOr(ps...))
		groupVals = append(groupVals, FOrSeq(vals...))
	}
	return Enhanced{
		Where:     predicate.NewAnd(kids...),
		Intensity: FAndAll(groupVals...),
		Preds:     append([]ScoredPred(nil), prefs...),
	}
}

// TupleIntensity computes the combined intensity of a single tuple against
// a preference list, as in Example 6 / Table 9: f∧ over the intensities of
// the preferences the tuple matches. It returns the combined value and the
// number of matching preferences (0 matches yield intensity 0).
func TupleIntensity(row predicate.Row, prefs []ScoredPred) (float64, int) {
	var vals []float64
	for _, p := range prefs {
		if p.P.Eval(row) {
			vals = append(vals, p.Intensity)
		}
	}
	if len(vals) == 0 {
		return 0, 0
	}
	return FAndAll(vals...), len(vals)
}
