// Package prefsql implements the Preference SQL comparator the dissertation
// positions HYPRE against (§1.3, §2.5): Kießling-style preference
// constructors — base preferences over attributes and Pareto composition
// (AND) — with Best-Matches-Only (BMO) evaluation. Preference SQL carries
// no intensity, so composition yields only a strict partial order; the
// dealership example shows exactly the ordering ambiguity (§2.5's
// t2-vs-t3 problem) the HYPRE model resolves.
package prefsql

import (
	"fmt"
	"math"
	"sort"

	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// Preference is a Kießling preference: a strict partial order over tuples,
// exposed through Better. Implementations must be irreflexive and
// transitive on the tuples they compare.
type Preference interface {
	// Better reports whether row a is strictly preferred over row b.
	Better(a, b predicate.Row) bool
	// String renders the PREFERRING fragment.
	String() string
}

// Bool is the base preference "tuples satisfying P are preferred over
// tuples that do not" (the POS/boolean constructor).
type Bool struct {
	P predicate.Predicate
}

// Better implements Preference.
func (p Bool) Better(a, b predicate.Row) bool {
	return p.P.Eval(a) && !p.P.Eval(b)
}

// String implements Preference.
func (p Bool) String() string { return p.P.String() }

// In is the POS preference "attr IN (v1, v2, ...)": members of the set are
// preferred over non-members.
func In(attr string, vals ...predicate.Value) Preference {
	return Bool{P: &predicate.In{Attr: attr, Vals: vals}}
}

// Between is the interval preference "attr BETWEEN lo AND hi": tuples
// inside the interval are best; outside, smaller distance to the interval
// is better (Preference SQL's numeric BETWEEN semantics).
type Between struct {
	Attr   string
	Lo, Hi float64
}

// distance is 0 inside the interval, else the gap to the nearest bound;
// missing attributes are infinitely far.
func (p Between) distance(r predicate.Row) float64 {
	v, ok := r.Get(p.Attr)
	if !ok || !v.IsNumeric() {
		return math.Inf(1)
	}
	x := v.AsFloat()
	switch {
	case x < p.Lo:
		return p.Lo - x
	case x > p.Hi:
		return x - p.Hi
	default:
		return 0
	}
}

// Better implements Preference.
func (p Between) Better(a, b predicate.Row) bool {
	return p.distance(a) < p.distance(b)
}

// String implements Preference.
func (p Between) String() string {
	return fmt.Sprintf("%s BETWEEN %g AND %g", p.Attr, p.Lo, p.Hi)
}

// Pareto is the AND composition (Definition 8): a is better than b iff a is
// at least as good under every member and strictly better under one.
type Pareto struct {
	Kids []Preference
}

// And builds a Pareto composition.
func And(kids ...Preference) Preference {
	if len(kids) == 1 {
		return kids[0]
	}
	return Pareto{Kids: kids}
}

// Better implements Preference.
func (p Pareto) Better(a, b predicate.Row) bool {
	strict := false
	for _, k := range p.Kids {
		if k.Better(b, a) {
			return false // worse somewhere -> not Pareto-better
		}
		if k.Better(a, b) {
			strict = true
		}
	}
	return strict
}

// String implements Preference.
func (p Pareto) String() string {
	out := ""
	for i, k := range p.Kids {
		if i > 0 {
			out += " AND "
		}
		out += k.String()
	}
	return out
}

// Result is a BMO-ranked answer: Level 0 holds the best matches only, level
// 1 the best of the remainder, and so on. Tuples within a level are
// mutually incomparable (or equivalent) under the preference — Preference
// SQL cannot order them further, which is the gap HYPRE's intensities fill.
type Result struct {
	Levels [][]relstore.JoinedRow
}

// Evaluate runs a query and ranks the result by repeated BMO peeling: level
// 0 is the set of rows not dominated by any other row, level 1 is the BMO
// of the remainder, etc. Within each level, rows keep a deterministic
// order (by scan position).
func Evaluate(db *relstore.DB, q relstore.Query, pref Preference) (Result, error) {
	rows, err := db.Select(q)
	if err != nil {
		return Result{}, err
	}
	remaining := make([]int, len(rows))
	for i := range rows {
		remaining[i] = i
	}
	var res Result
	for len(remaining) > 0 {
		var level, rest []int
		for _, i := range remaining {
			dominated := false
			for _, j := range remaining {
				if i != j && pref.Better(rows[j], rows[i]) {
					dominated = true
					break
				}
			}
			if dominated {
				rest = append(rest, i)
			} else {
				level = append(level, i)
			}
		}
		if len(level) == 0 {
			// A cycle in a malformed preference: emit everything to
			// terminate.
			level, rest = remaining, nil
		}
		sort.Ints(level)
		lv := make([]relstore.JoinedRow, len(level))
		for k, i := range level {
			lv[k] = rows[i]
		}
		res.Levels = append(res.Levels, lv)
		remaining = rest
	}
	return res, nil
}

// LevelOf returns the BMO level index of the row whose attribute equals the
// given value, or -1. A convenience for tests and examples.
func (r Result) LevelOf(attr string, v predicate.Value) int {
	for li, level := range r.Levels {
		for _, row := range level {
			if got, ok := row.Get(attr); ok && got.Equal(v) {
				return li
			}
		}
	}
	return -1
}
