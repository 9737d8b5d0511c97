// Package hypre implements the dissertation's primary contribution: the
// HYPRE (Hybrid Preference) graph model of Chapters 3–4. It stores
// quantitative preferences (an SQL predicate with an intensity in [-1, 1])
// and qualitative preferences (predicate A preferred over predicate B with
// strength in [0, 1]) in one labeled directed acyclic graph, converts
// qualitative preferences into quantitative ones by intensity propagation
// (Eq. 4.1/4.2), detects and marks conflicts (CYCLE / DISCARD edges), and
// rewrites user queries with combined preference predicates (§4.6).
package hypre

import (
	"fmt"
	"math"
)

// Intensity bounds (Definition 13).
const (
	MinIntensity = -1.0
	MaxIntensity = 1.0
)

// Side selects which endpoint of a qualitative preference an intensity is
// being computed for (the LEFT/RIGHT argument of Algorithm 8).
type Side int

const (
	// Left is the preferred endpoint of a qualitative edge.
	Left Side = iota
	// Right is the less-preferred endpoint.
	Right
)

// ValidQuantIntensity reports whether v is a legal quantitative intensity
// (Definition 14: [-1, 1]).
func ValidQuantIntensity(v float64) bool {
	return !math.IsNaN(v) && v >= MinIntensity && v <= MaxIntensity
}

// ValidQualIntensity reports whether v is a legal qualitative-preference
// strength (Definition 14: [0, 1]; negative strengths are normalized away
// by flipping the edge per Proposition 7 before reaching the graph).
func ValidQualIntensity(v float64) bool {
	return !math.IsNaN(v) && v >= 0 && v <= MaxIntensity
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}

// IntensityLeft computes the intensity for the left (preferred) node of a
// qualitative preference from the edge strength ql and the right node's
// quantitative intensity qt — Equation (4.1):
//
//	Intensity_Left(ql, qt) = min(1, qt * 2^(sign(qt)*ql))
//
// The result is always >= qt for qt in [-1, 1] and ql in [0, 1], preserving
// the edge invariant intensity(left) >= intensity(right).
func IntensityLeft(ql, qt float64) float64 {
	return math.Min(MaxIntensity, qt*math.Pow(2, sign(qt)*ql))
}

// IntensityRight computes the intensity for the right (less preferred) node
// from the edge strength ql and the left node's quantitative intensity qt —
// Equation (4.2):
//
//	Intensity_Right(ql, qt) = max(-1, qt * 2^(-sign(qt)*ql))
//
// The result is always <= qt.
func IntensityRight(ql, qt float64) float64 {
	return math.Max(MinIntensity, qt*math.Pow(2, -sign(qt)*ql))
}

// ComputeIntensity is Algorithm 8: it dispatches to IntensityLeft or
// IntensityRight based on the side.
func ComputeIntensity(side Side, ql, qt float64) float64 {
	if side == Left {
		return IntensityLeft(ql, qt)
	}
	return IntensityRight(ql, qt)
}

// FAnd is the inflationary conjunction composition function — Equation
// (4.3): f∧(p1, p2) = 1 − (1−p1)(1−p2). By Proposition 1 it is associative
// and commutative, so the combined intensity of an AND chain does not
// depend on combination order.
func FAnd(p1, p2 float64) float64 {
	return 1 - (1-p1)*(1-p2)
}

// FAndAll folds FAnd over the list: 1 − Π(1−pi). Empty input yields 0
// (the identity of f∧).
func FAndAll(ps ...float64) float64 {
	prod := 1.0
	for _, p := range ps {
		prod *= 1 - p
	}
	return 1 - prod
}

// FOr is the reserved disjunction composition function — Equation (4.4):
// f∨(p1, p2) = (p1 + p2) / 2. By Proposition 2 the folded result depends on
// the fold order; HYPRE folds in the order preferences are appended to the
// OR group (descending intensity), which yields the largest combined value
// among orders (Proposition 2's inequality chain).
func FOr(p1, p2 float64) float64 {
	return (p1 + p2) / 2
}

// FOrSeq left-folds FOr over the list in the given order:
// f∨(...f∨(f∨(p1,p2),p3)...,pn). Single element returns itself; empty
// returns 0.
func FOrSeq(ps ...float64) float64 {
	if len(ps) == 0 {
		return 0
	}
	acc := ps[0]
	for _, p := range ps[1:] {
		acc = FOr(acc, p)
	}
	return acc
}

// MinPreferencesToExceed is Proposition 6's lower bound: the least K such
// that combining K preferences of intensity p2 under f∧ can reach p1, i.e.
// K = log(1−p1)/log(1−p2). It returns +Inf when p2 <= 0 (no number of
// non-positive preferences inflates) and 1 when p2 >= p1.
func MinPreferencesToExceed(p1, p2 float64) float64 {
	if p2 >= p1 {
		return 1
	}
	if p2 <= 0 {
		return math.Inf(1)
	}
	if p1 >= 1 {
		return math.Inf(1)
	}
	return math.Log(1-p1) / math.Log(1-p2)
}

// NormalizeQualitative applies Proposition 7: a qualitative preference
// "A over B with strength s" where s < 0 is equivalent to "B over A with
// strength -s". It returns the possibly swapped (left, right, strength).
func NormalizeQualitative(left, right string, s float64) (string, string, float64) {
	if s < 0 {
		return right, left, -s
	}
	return left, right, s
}

// ClampIntensity forces v into [-1, 1].
func ClampIntensity(v float64) float64 {
	return math.Max(MinIntensity, math.Min(MaxIntensity, v))
}

// CheckQuantIntensity returns an error describing an out-of-range
// quantitative intensity.
func CheckQuantIntensity(v float64) error {
	if !ValidQuantIntensity(v) {
		return fmt.Errorf("hypre: quantitative intensity %v outside [-1, 1]", v)
	}
	return nil
}

// CheckQualIntensity returns an error describing an out-of-range
// qualitative strength.
func CheckQualIntensity(v float64) error {
	if !ValidQualIntensity(v) {
		return fmt.Errorf("hypre: qualitative intensity %v outside [0, 1]", v)
	}
	return nil
}
