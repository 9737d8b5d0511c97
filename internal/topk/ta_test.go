package topk

import (
	"math"
	"testing"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestTAOnHandBuiltLists(t *testing.T) {
	venue := map[int64]float64{1: 0.9, 2: 0.7, 3: 0.5}
	author := map[int64]float64{2: 0.8, 3: 0.2, 4: 0.6}
	l := NewLists([]string{"venue", "author"}, []map[int64]float64{venue, author})
	got := l.TA(3)
	if len(got) != 3 {
		t.Fatalf("got %d tuples", len(got))
	}
	// Aggregates: 1 -> 0.9 ; 2 -> f∧(0.7,0.8)=0.94 ; 3 -> f∧(0.5,0.2)=0.6 ;
	// 4 -> 0.6. Top-3: 2 (0.94), 1 (0.9), then 3 or 4 at 0.6 (pid tie-break
	// -> 3).
	if got[0].PID != 2 || !almostEq(got[0].Intensity, hypre.FAnd(0.7, 0.8)) {
		t.Errorf("top = %+v", got[0])
	}
	if got[1].PID != 1 || !almostEq(got[1].Intensity, 0.9) {
		t.Errorf("second = %+v", got[1])
	}
	if got[2].PID != 3 || !almostEq(got[2].Intensity, 0.6) {
		t.Errorf("third = %+v", got[2])
	}
}

func TestTAExhaustive(t *testing.T) {
	// With k >= all objects, TA must return every object, exactly ranked.
	venue := map[int64]float64{1: 0.3, 2: 0.6}
	author := map[int64]float64{3: 0.9}
	l := NewLists([]string{"v", "a"}, []map[int64]float64{venue, author})
	got := l.TA(10)
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Intensity > got[i-1].Intensity {
			t.Error("not sorted")
		}
	}
}

func TestTAKZeroAndEmpty(t *testing.T) {
	l := NewLists(nil, nil)
	if got := l.TA(5); got != nil {
		t.Errorf("empty lists returned %v", got)
	}
	l2 := NewLists([]string{"v"}, []map[int64]float64{{1: 0.5}})
	if got := l2.TA(0); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestTAEarlyTermination(t *testing.T) {
	// The threshold must let TA stop before exhausting long lists: the top
	// object appears at depth 0 of both lists with grade far above the rest.
	venue := map[int64]float64{5000: 0.99}
	author := map[int64]float64{5000: 0.99}
	for i := int64(0); i < 1000; i++ {
		venue[i] = 0.01
		author[i] = 0.01
	}
	l := NewLists([]string{"v", "a"}, []map[int64]float64{venue, author})
	got := l.TA(1)
	if len(got) != 1 || got[0].PID != 5000 {
		t.Fatalf("got %+v", got)
	}
}

// taDB builds a small store for BuildLists integration.
func taDB(t *testing.T) *combine.Evaluator {
	t.Helper()
	db := relstore.NewDB()
	dblp, _ := db.CreateTable("dblp",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "venue", Kind: predicate.KindString},
	)
	da, _ := db.CreateTable("dblp_author",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "aid", Kind: predicate.KindInt},
	)
	rows := []struct {
		pid   int64
		venue string
		aids  []int64
	}{
		{1, "VLDB", []int64{7}},
		{2, "VLDB", []int64{7, 8}},
		{3, "PODS", []int64{8}},
	}
	for _, r := range rows {
		dblp.Insert(predicate.Int(r.pid), predicate.String(r.venue))
		for _, a := range r.aids {
			da.Insert(predicate.Int(r.pid), predicate.Int(a))
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

func mustSP(t *testing.T, pred string, in float64) hypre.ScoredPred {
	t.Helper()
	p, err := hypre.NewScoredPred(pred, in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildListsGroupsByAttribute(t *testing.T) {
	ev := taDB(t)
	prefs := []hypre.ScoredPred{
		mustSP(t, `dblp.venue="VLDB"`, 0.5),
		mustSP(t, `dblp_author.aid=7`, 0.4),
		mustSP(t, `dblp_author.aid=8`, 0.3),
	}
	l, err := BuildLists(ev, prefs)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Names) != 2 {
		t.Fatalf("attr lists = %v", l.Names)
	}
	got := l.TA(3)
	if len(got) != 3 {
		t.Fatalf("TA returned %d", len(got))
	}
	// Paper 2: venue 0.5, authors f∧(0.4,0.3)=0.58 -> total f∧(0.5,0.58).
	want2 := hypre.FAnd(0.5, hypre.FAnd(0.4, 0.3))
	if got[0].PID != 2 || !almostEq(got[0].Intensity, want2) {
		t.Errorf("top = %+v, want pid 2 @ %v", got[0], want2)
	}
	// Paper 1: f∧(0.5, 0.4) = 0.7 ; paper 3: aid 8 only = 0.3.
	if got[1].PID != 1 || !almostEq(got[1].Intensity, hypre.FAnd(0.5, 0.4)) {
		t.Errorf("second = %+v", got[1])
	}
	if got[2].PID != 3 || !almostEq(got[2].Intensity, 0.3) {
		t.Errorf("third = %+v", got[2])
	}
}

func TestBuildListsSkipsNegative(t *testing.T) {
	ev := taDB(t)
	prefs := []hypre.ScoredPred{
		mustSP(t, `dblp.venue="VLDB"`, 0.5),
		mustSP(t, `dblp.venue="PODS"`, -0.4),
	}
	l, err := BuildLists(ev, prefs)
	if err != nil {
		t.Fatal(err)
	}
	got := l.TA(10)
	for _, tu := range got {
		if tu.PID == 3 {
			t.Error("negatively-preferred tuple graded")
		}
	}
}
