// Package combine implements the preference-combination algorithms of
// Chapter 5: Combine-Two (Algorithms 2/3), Partially-Combine-All
// (Algorithm 4), Bias-Random-Selection (Algorithm 5), and the Complete and
// Approximate PEPS Top-K algorithms (Algorithm 6), together with the
// combination evaluator that runs preference-enhanced queries against the
// relational store.
package combine

import (
	"hypre/internal/hypre"
	"hypre/internal/predicate"
)

// Combo is a preference combination in the mixed-clause normal form of
// §4.6: preferences on the same attribute are OR-ed within a group, groups
// are AND-ed together. Every combination the Chapter 5 algorithms build has
// this shape (a pure AND combination has single-member groups only).
type Combo struct {
	Groups [][]hypre.ScoredPred
}

// NewCombo starts a combination from a single preference.
func NewCombo(p hypre.ScoredPred) Combo {
	return Combo{Groups: [][]hypre.ScoredPred{{p}}}
}

// And returns a new combination with p appended as its own AND-ed group
// (the AND() helper of Algorithms 2–4).
func (c Combo) And(p hypre.ScoredPred) Combo {
	groups := cloneGroups(c.Groups)
	groups = append(groups, []hypre.ScoredPred{p})
	return Combo{Groups: groups}
}

// Or returns a new combination with p OR-ed into the group holding its
// attribute; if no group matches, p forms a new group (degenerating to
// And). This is the OR() helper of Algorithms 2 and 4.
func (c Combo) Or(p hypre.ScoredPred) Combo {
	groups := cloneGroups(c.Groups)
	for gi, g := range groups {
		if len(g) > 0 && g[0].Attr != "" && g[0].Attr == p.Attr {
			groups[gi] = append(append([]hypre.ScoredPred(nil), g...), p)
			return Combo{Groups: groups}
		}
	}
	groups = append(groups, []hypre.ScoredPred{p})
	return Combo{Groups: groups}
}

func cloneGroups(gs [][]hypre.ScoredPred) [][]hypre.ScoredPred {
	out := make([][]hypre.ScoredPred, len(gs))
	for i, g := range gs {
		out[i] = append([]hypre.ScoredPred(nil), g...)
	}
	return out
}

// NumPreds counts the member preferences.
func (c Combo) NumPreds() int {
	n := 0
	for _, g := range c.Groups {
		n += len(g)
	}
	return n
}

// HasAttr reports whether the combination already constrains attr.
func (c Combo) HasAttr(attr string) bool {
	for _, g := range c.Groups {
		for _, p := range g {
			if p.Attr == attr {
				return true
			}
		}
	}
	return false
}

// HasAnd reports whether the combination conjoins at least two groups — the
// "lastCombination contains AND" test of Algorithm 4.
func (c Combo) HasAnd() bool { return len(c.Groups) >= 2 }

// Intensity computes the combined intensity value: f∨ folded within each
// group (in member order, which the algorithms keep descending) and f∧
// across groups (order-free by Proposition 1).
func (c Combo) Intensity() float64 {
	groupVals := make([]float64, len(c.Groups))
	for i, g := range c.Groups {
		vals := make([]float64, len(g))
		for j, p := range g {
			vals[j] = p.Intensity
		}
		groupVals[i] = hypre.FOrSeq(vals...)
	}
	return hypre.FAndAll(groupVals...)
}

// Where builds the SQL predicate tree for the combination.
func (c Combo) Where() predicate.Predicate {
	kids := make([]predicate.Predicate, 0, len(c.Groups))
	for _, g := range c.Groups {
		ps := make([]predicate.Predicate, len(g))
		for i, p := range g {
			ps[i] = p.P
		}
		kids = append(kids, predicate.NewOr(ps...))
	}
	return predicate.NewAnd(kids...)
}

// String renders the combination as a WHERE fragment.
func (c Combo) String() string { return c.Where().String() }

// Record is one output row of every Chapter 5 algorithm:
// <#predicates used, #tuples returned, combined intensity value>.
type Record struct {
	NumPreds  int
	NumTuples int
	Intensity float64
	Combo     Combo
	// Tuples is the distinct tuple-id set the combination matched, in pid
	// order (filled by Evaluator.Run from the combination's bitmap). PEPS
	// itself now credits tuples straight from the bitmaps — this slice view
	// serves the other Chapter 5 algorithms, the experiments, and the
	// equivalence oracles.
	Tuples IntSet
	// AnchorIndex / PartnerIndex identify the input positions for
	// Combine-Two (the "first/second/third preference" series of Fig. 29);
	// other algorithms leave them 0.
	AnchorIndex  int
	PartnerIndex int
}

// Records is a helper slice with the orderings the experiments need.
type Records []Record

// ByNumPreds selects the records that used exactly n predicates, in
// original (combination) order — the "combination order" x-axis of
// Figs. 18–25 and 32–34.
func (rs Records) ByNumPreds(n int) Records {
	out := Records{}
	for _, r := range rs {
		if r.NumPreds == n {
			out = append(out, r)
		}
	}
	return out
}
