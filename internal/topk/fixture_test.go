package topk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// dblpEvaluator builds a randomized dblp-shaped store: papers with a unique pid
// key, a venue drawn from a pool whose size steers predicate selectivity, a
// numeric score column, and a dblp_author join table with zipf-ish author
// popularity.
func dblpEvaluator(t *testing.T, rng *rand.Rand, nPapers, nVenues, nAuthors int) *combine.Evaluator {
	t.Helper()
	db := relstore.NewDB()
	dblp, err := db.CreateTable("dblp",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "venue", Kind: predicate.KindString},
		relstore.Column{Name: "score", Kind: predicate.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	da, err := db.CreateTable("dblp_author",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "aid", Kind: predicate.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nPapers; p++ {
		pid := int64(p + 1)
		venue := fmt.Sprintf("V%d", rng.Intn(nVenues))
		score := int64(rng.Intn(100))
		if _, err := dblp.Insert(predicate.Int(pid), predicate.String(venue), predicate.Int(score)); err != nil {
			t.Fatal(err)
		}
		for n := rng.Intn(3); n > 0; n-- {
			aid := int64(rng.Intn(nAuthors*nAuthors)) / int64(nAuthors) // skewed
			if _, err := da.Insert(predicate.Int(pid), predicate.Int(aid)); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := func(w predicate.Predicate) relstore.Query {
		return relstore.Query{
			From:  "dblp",
			Join:  &relstore.JoinSpec{Table: "dblp_author", LeftCol: "pid", RightCol: "pid"},
			Where: w,
		}
	}
	return combine.NewEvaluator(db, base, "dblp.pid")
}

// randomProfile draws a random profile across the leaf shapes, a composite
// on the base table, an OR across both join sides, and an occasional
// negative (skipped) preference.
func randomProfile(t *testing.T, rng *rand.Rand, size, nVenues, nAuthors int) []hypre.ScoredPred {
	t.Helper()
	intensity := func() float64 {
		if rng.Float64() < 0.1 {
			return -rng.Float64() // negative: every path must skip it
		}
		return float64(rng.Intn(100)) / 100
	}
	prefs := make([]hypre.ScoredPred, 0, size)
	for i := 0; i < size; i++ {
		var p predicate.Predicate
		attr := ""
		switch rng.Intn(6) {
		case 0:
			p = &predicate.Cmp{Attr: "dblp.venue", Op: predicate.OpEq,
				Val: predicate.String(fmt.Sprintf("V%d", rng.Intn(nVenues)))}
			attr = "venue"
		case 1:
			p = &predicate.Cmp{Attr: "dblp_author.aid", Op: predicate.OpEq,
				Val: predicate.Int(int64(rng.Intn(nAuthors)))}
			attr = "aid"
		case 2:
			lo := int64(rng.Intn(90))
			p = &predicate.Between{Attr: "dblp.score",
				Lo: predicate.Int(lo), Hi: predicate.Int(lo + int64(rng.Intn(30)))}
			attr = "score"
		case 3:
			p = &predicate.In{Attr: "dblp.venue", Vals: []predicate.Value{
				predicate.String(fmt.Sprintf("V%d", rng.Intn(nVenues))),
				predicate.String(fmt.Sprintf("V%d", rng.Intn(nVenues))),
			}}
			attr = "venue"
		case 4:
			// One disjunct per join side: the block planner refuses it,
			// so its scan runs row at a time.
			p = predicate.NewOr(
				&predicate.Cmp{Attr: "dblp.venue", Op: predicate.OpEq,
					Val: predicate.String(fmt.Sprintf("V%d", rng.Intn(nVenues)))},
				&predicate.Cmp{Attr: "dblp_author.aid", Op: predicate.OpEq,
					Val: predicate.Int(int64(rng.Intn(nAuthors)))},
			)
		default:
			p = predicate.NewOr(
				&predicate.Cmp{Attr: "dblp.venue", Op: predicate.OpEq,
					Val: predicate.String(fmt.Sprintf("V%d", rng.Intn(nVenues)))},
				&predicate.Not{Kid: &predicate.Cmp{Attr: "dblp.score", Op: predicate.OpLt,
					Val: predicate.Int(int64(rng.Intn(100)))}},
			)
		}
		// The Pred string is the evaluator's cache identity, so it must
		// describe the predicate, not the profile slot.
		prefs = append(prefs, hypre.ScoredPred{
			Pred: fmt.Sprint(p), P: p, Intensity: intensity(), Attr: attr,
		})
	}
	return prefs
}

func sameRanking(a, b []combine.ScoredTuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PID != b[i].PID ||
			math.Float64bits(a[i].Intensity) != math.Float64bits(b[i].Intensity) {
			return false
		}
	}
	return true
}
