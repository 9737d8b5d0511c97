package hypre

import (
	"strings"
	"testing"

	"hypre/internal/predicate"
)

func sp(t *testing.T, pred string, intensity float64) ScoredPred {
	t.Helper()
	p, err := NewScoredPred(pred, intensity)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewScoredPred(t *testing.T) {
	p := sp(t, `dblp.venue = 'VLDB'`, 0.5)
	if p.Attr != "dblp.venue" {
		t.Errorf("Attr = %q", p.Attr)
	}
	if p.Pred != `dblp.venue="VLDB"` {
		t.Errorf("Pred = %q (not normalized)", p.Pred)
	}
	if _, err := NewScoredPred("((", 0.5); err == nil {
		t.Error("invalid predicate accepted")
	}
}

func TestEnhanceAnd(t *testing.T) {
	prefs := []ScoredPred{
		sp(t, `price BETWEEN 7000 AND 16000`, 0.8),
		sp(t, `mileage BETWEEN 20000 AND 50000`, 0.5),
		sp(t, `make IN ("BMW","Honda")`, 0.2),
	}
	e := EnhanceAnd(prefs)
	if !almostEq(e.Intensity, 0.92) {
		t.Errorf("intensity = %v, want 0.92", e.Intensity)
	}
	r := predicate.MapRow{
		"price":   predicate.Int(7000),
		"mileage": predicate.Int(43489),
		"make":    predicate.String("Honda"),
	}
	if !e.Where.Eval(r) {
		t.Error("t1 should match the conjunction")
	}
	r["price"] = predicate.Int(20000)
	if e.Where.Eval(r) {
		t.Error("t3 must not match the conjunction")
	}
}

func TestEnhanceOr(t *testing.T) {
	prefs := []ScoredPred{
		sp(t, `venue="A"`, 0.8),
		sp(t, `venue="B"`, 0.4),
	}
	e := EnhanceOr(prefs)
	if !almostEq(e.Intensity, 0.6) {
		t.Errorf("intensity = %v, want 0.6", e.Intensity)
	}
	if !e.Where.Eval(predicate.MapRow{"venue": predicate.String("B")}) {
		t.Error("B should match")
	}
}

func TestEnhanceMixedGrouping(t *testing.T) {
	// §4.6's uid=2 example: venues OR-ed together, authors OR-ed together,
	// the two groups AND-ed.
	prefs := []ScoredPred{
		sp(t, `dblp.venue="INFOCOM"`, 0.23),
		sp(t, `dblp.venue="PODS"`, 0.14),
		sp(t, `dblp_author.aid=128`, 0.19),
		sp(t, `dblp_author.aid=116`, 0.14),
	}
	e := EnhanceMixed(prefs)
	text := e.Text()
	if !strings.Contains(text, "OR") || !strings.Contains(text, "AND") {
		t.Errorf("mixed clause text = %q", text)
	}
	// Matches: INFOCOM paper by author 128.
	r := predicate.MapRow{
		"dblp.venue":      predicate.String("INFOCOM"),
		"dblp_author.aid": predicate.Int(128),
	}
	if !e.Where.Eval(r) {
		t.Error("INFOCOM+128 should match")
	}
	// INFOCOM paper by another author fails the author group.
	r["dblp_author.aid"] = predicate.Int(999)
	if e.Where.Eval(r) {
		t.Error("author group should filter")
	}
	// Intensity: f∧(f∨(0.23,0.14), f∨(0.19,0.14)).
	want := FAnd(FOrSeq(0.23, 0.14), FOrSeq(0.19, 0.14))
	if !almostEq(e.Intensity, want) {
		t.Errorf("intensity = %v, want %v", e.Intensity, want)
	}
}

func TestEnhanceMixedSingleGroup(t *testing.T) {
	prefs := []ScoredPred{
		sp(t, `venue="A"`, 0.5),
		sp(t, `venue="B"`, 0.3),
	}
	e := EnhanceMixed(prefs)
	if strings.Contains(e.Text(), "AND") {
		t.Errorf("single attribute should be pure OR: %q", e.Text())
	}
	if !almostEq(e.Intensity, 0.4) {
		t.Errorf("intensity = %v", e.Intensity)
	}
}

func TestEnhanceMixedMultiAttrPredicate(t *testing.T) {
	// A predicate spanning two attributes forms its own AND-ed group.
	prefs := []ScoredPred{
		sp(t, `venue="VLDB" AND year>=2010`, 0.6),
		sp(t, `venue="PVLDB"`, 0.4),
	}
	e := EnhanceMixed(prefs)
	if !strings.Contains(e.Text(), "AND") {
		t.Errorf("text = %q", e.Text())
	}
	want := FAnd(0.6, 0.4)
	if !almostEq(e.Intensity, want) {
		t.Errorf("intensity = %v, want %v", e.Intensity, want)
	}
}

func TestEnhanceEmpty(t *testing.T) {
	e := EnhanceAnd(nil)
	if e.Intensity != 0 || !e.Where.Eval(predicate.MapRow{}) {
		t.Error("empty AND should be TRUE with intensity 0")
	}
	eo := EnhanceOr(nil)
	if eo.Where.Eval(predicate.MapRow{}) {
		t.Error("empty OR should be FALSE")
	}
	em := EnhanceMixed(nil)
	if em.Intensity != 0 {
		t.Error("empty mixed intensity")
	}
}

func TestTupleIntensityDealership(t *testing.T) {
	// Example 6 / Table 9 end to end.
	prefs := []ScoredPred{
		sp(t, `price BETWEEN 7000 AND 16000`, 0.8),
		sp(t, `mileage BETWEEN 20000 AND 50000`, 0.5),
		sp(t, `make IN ("BMW","Honda")`, 0.2),
	}
	mk := func(price, mileage int64, make_ string) predicate.MapRow {
		return predicate.MapRow{
			"price":   predicate.Int(price),
			"mileage": predicate.Int(mileage),
			"make":    predicate.String(make_),
		}
	}
	t1, n1 := TupleIntensity(mk(7000, 43489, "Honda"), prefs)
	t2, n2 := TupleIntensity(mk(16000, 35334, "VW"), prefs)
	t3, n3 := TupleIntensity(mk(20000, 49119, "Honda"), prefs)
	if !almostEq(t1, 0.92) || n1 != 3 {
		t.Errorf("t1 = %v (%d prefs), want 0.92 (3)", t1, n1)
	}
	if !almostEq(t2, 0.9) || n2 != 2 {
		t.Errorf("t2 = %v (%d prefs), want 0.9 (2)", t2, n2)
	}
	if !almostEq(t3, 0.6) || n3 != 2 {
		t.Errorf("t3 = %v (%d prefs), want 0.6 (2)", t3, n3)
	}
	// The paper's expected ranking: t1 > t2 > t3.
	if !(t1 > t2 && t2 > t3) {
		t.Errorf("ranking broken: %v %v %v", t1, t2, t3)
	}
	// No-match tuple.
	z, nz := TupleIntensity(mk(99999, 99999, "Fiat"), prefs)
	if z != 0 || nz != 0 {
		t.Errorf("no-match = %v (%d)", z, nz)
	}
}

func TestProfileEndToEnd(t *testing.T) {
	h := NewGraph(DefaultFixed)
	h.AddQuantitative(2, `dblp.venue="INFOCOM"`, 0.23)
	h.AddQuantitative(2, `dblp.venue="PODS"`, 0.14)
	h.AddQuantitative(2, `dblp_author.aid=128`, 0.19)
	h.AddQuantitative(2, `dblp_author.aid=116`, 0.14)
	prefs := h.PositiveProfile(2)
	if len(prefs) != 4 {
		t.Fatalf("profile = %d", len(prefs))
	}
	e := EnhanceMixed(prefs)
	text := e.Text()
	// The rewritten query of §4.6 groups venue and author predicates.
	if !strings.Contains(text, `dblp.venue="INFOCOM"`) || !strings.Contains(text, "AND") {
		t.Errorf("enhanced = %q", text)
	}
}
