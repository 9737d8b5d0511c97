package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"hypre/internal/workload"
)

var (
	labOnce sync.Once
	testLab *Lab
	labErr  error
)

// lab returns a shared, small experimental setup (built once per test run).
func lab(t *testing.T) *Lab {
	t.Helper()
	labOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.NumPapers = 1200
		cfg.NumAuthors = 400
		cfg.NumVenues = 20
		testLab, labErr = NewLab(cfg)
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return testLab
}

func TestLabSetup(t *testing.T) {
	l := lab(t)
	if l.Rich < 0 || l.Modest < 0 {
		t.Fatal("exemplar users not found")
	}
	counts := l.Prefs.CountByUser()
	if counts[l.Rich] < counts[l.Modest] {
		t.Errorf("rich user has fewer prefs (%d) than modest (%d)",
			counts[l.Rich], counts[l.Modest])
	}
	if len(l.ProfileFor(l.Rich, 0)) == 0 {
		t.Error("rich profile empty")
	}
	if got := len(l.ProfileFor(l.Rich, 5)); got != 5 {
		t.Errorf("profile cap = %d", got)
	}
}

func TestTable10(t *testing.T) {
	l := lab(t)
	r := RunTable10(l)
	byName := map[string]RelationStat{}
	for _, rel := range r.Relations {
		byName[rel.Name] = rel
	}
	if byName["dblp"].Arity != 5 || byName["dblp"].Cardinality != 1200 {
		t.Errorf("dblp = %+v", byName["dblp"])
	}
	if r.QuantPrefs == 0 || r.QualPrefs == 0 {
		t.Error("preference tables empty")
	}
	// Qualitative extraction only needs citations, so every quant user is
	// not necessarily a qual user; both must be positive.
	if r.DistinctQuant == 0 || r.DistinctQual == 0 {
		t.Error("no distinct users")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "dblp_author") {
		t.Error("render missing relation")
	}
}

func TestTable11(t *testing.T) {
	l := lab(t)
	r, err := RunTable11(l)
	if err != nil {
		t.Fatal(err)
	}
	if r.QuantCount != len(l.Prefs.Quant) || r.QualCount != len(l.Prefs.Qual) {
		t.Errorf("counts = %d/%d, want %d/%d",
			r.QuantCount, r.QualCount, len(l.Prefs.Quant), len(l.Prefs.Qual))
	}
	if r.QuantTime <= 0 || r.QualTime <= 0 {
		t.Error("zero timings")
	}
	if r.Stats.Nodes == 0 || r.Stats.Prefers == 0 {
		t.Errorf("graph stats = %+v", r.Stats)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Qualitative") {
		t.Error("render incomplete")
	}
}

func TestTable12(t *testing.T) {
	l := lab(t)
	r, err := RunTable12(l, l.Modest)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 strategies", len(r.Rows))
	}
	seeds := map[float64]bool{}
	for _, row := range r.Rows {
		if row.ProfileSize == 0 {
			t.Errorf("strategy %s produced empty profile", row.Strategy)
		}
		seeds[row.SeedObserved] = true
	}
	// Strategies must actually differ on a non-trivial profile.
	if len(seeds) < 2 {
		t.Errorf("all strategies yielded the same seed: %v", seeds)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "avg_pos") {
		t.Error("render missing strategy")
	}
}

func TestFig13(t *testing.T) {
	r := RunFig13(5, 2000)
	if len(r.Points) != 5 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for i, p := range r.Points {
		if p.TotalNodes != (i+1)*2000 {
			t.Errorf("point %d total = %d", i, p.TotalNodes)
		}
		if p.BatchTime <= 0 {
			t.Error("zero batch time")
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "TotalNodes") {
		t.Error("render incomplete")
	}
}

func TestFig17(t *testing.T) {
	l := lab(t)
	r := RunFig17(l)
	if r.Users == 0 || len(r.Bins) == 0 {
		t.Fatal("empty distribution")
	}
	if r.TailRatio < 0.5 {
		t.Errorf("tail ratio = %v, expected long tail", r.TailRatio)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "PrefCount") {
		t.Error("render incomplete")
	}
}

func TestFig18Utility(t *testing.T) {
	l := lab(t)
	r, err := RunFig18Utility(l, l.Modest, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d", len(r.Series))
	}
	if len(r.AllRecords) == 0 {
		t.Fatal("no combinations")
	}
	two := r.Series[0]
	if two.NumPreds != 2 || len(two.Utility) == 0 {
		t.Fatalf("2-pref series empty")
	}
	for i, u := range two.Utility {
		if u < 0 {
			t.Errorf("negative utility at %d", i)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	r.RenderTuplesIntensity(&buf)
	if !strings.Contains(buf.String(), "Fig 20-25") {
		t.Error("render incomplete")
	}
}

func TestFig26PrefGrowth(t *testing.T) {
	l := lab(t)
	for _, uid := range l.Users() {
		r := RunFig26PrefGrowth(l, uid)
		if r.FromQuantTable == 0 {
			t.Fatalf("uid=%d has no quantitative prefs", uid)
		}
		// The paper's headline: conversion grows the usable preference set
		// (36 -> 172 for uid=2; 24 -> 50 for uid=38437).
		if r.FromGraph <= r.FromQuantTable {
			t.Errorf("uid=%d: no growth (%d -> %d)", uid, r.FromQuantTable, r.FromGraph)
		}
		if g := r.GrowthFactor(); g <= 1 {
			t.Errorf("growth factor = %v", g)
		}
	}
	var buf bytes.Buffer
	RunFig26PrefGrowth(l, l.Rich).Render(&buf)
	if !strings.Contains(buf.String(), "HYPRE graph") {
		t.Error("render incomplete")
	}
}

func TestFig28Coverage(t *testing.T) {
	l := lab(t)
	for _, uid := range l.Users() {
		r, err := RunFig28Coverage(l, uid)
		if err != nil {
			t.Fatal(err)
		}
		cov := map[string]int{}
		for _, row := range r.Rows {
			cov[row.Source] = row.Tuples
		}
		// Shape of Fig. 28: HYPRE >= QT+QL >= QT, and HYPRE strictly gains.
		if cov["QT+QL"] < cov["QT"] {
			t.Errorf("uid=%d: QT+QL (%d) < QT (%d)", uid, cov["QT+QL"], cov["QT"])
		}
		if cov["HYPRE_Graph"] < cov["QT+QL"] {
			t.Errorf("uid=%d: HYPRE (%d) < QT+QL (%d)", uid, cov["HYPRE_Graph"], cov["QT+QL"])
		}
		if r.Gain("QT") <= 1 {
			t.Errorf("uid=%d: no coverage gain over QT (%.2f)", uid, r.Gain("QT"))
		}
	}
}

func TestFig29CombineTwo(t *testing.T) {
	l := lab(t)
	r, err := RunFig29CombineTwo(l, l.Modest, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 6 { // 3 anchors x 2 semantics
		t.Fatalf("series = %d", len(r.Series))
	}
	// AND_OR must starve no more than AND for the same anchor (OR pairs
	// always return the union).
	for i := 0; i < 3; i++ {
		andor, and := r.Series[i], r.Series[i+3]
		if andor.AnchorIndex != and.AnchorIndex {
			t.Fatal("series misaligned")
		}
		if andor.Starved > and.Starved {
			t.Errorf("anchor %d: AND_OR starved more (%d) than AND (%d)",
				i, andor.Starved, and.Starved)
		}
	}
}

func TestFig32PartiallyCombineAll(t *testing.T) {
	l := lab(t)
	r, err := RunFig32PartiallyCombineAll(l, l.Modest, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalCombos == 0 || len(r.By2) == 0 {
		t.Fatal("no combinations")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "2 preferences") {
		t.Error("render incomplete")
	}
}

func TestFig35BiasRandom(t *testing.T) {
	l := lab(t)
	r, err := RunFig35BiasRandom(l, l.Modest, 12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 10 {
		t.Fatalf("points = %d", len(r.Points))
	}
	totalInvalid := 0
	for _, p := range r.Points {
		totalInvalid += p.Invalid
	}
	// The paper's message: random selection wastes many attempts.
	if totalInvalid == 0 {
		t.Error("no invalid attempts across seeds")
	}
	if r.InvalidToValidRatio() <= 0 {
		t.Errorf("ratio = %v", r.InvalidToValidRatio())
	}
}

func TestFig37PEPSvsTA(t *testing.T) {
	l := lab(t)
	r, err := RunFig37PEPSvsTA(l, l.Modest, 200, 12)
	if err != nil {
		t.Fatal(err)
	}
	// §7.6.3 headline 1: on quantitative-only preferences PEPS and TA agree
	// exactly — 100% similarity and 100% overlap.
	if r.QTSimilarity < 0.999 {
		t.Errorf("QT similarity = %v, want 1.0", r.QTSimilarity)
	}
	if r.QTOverlap < 0.999 {
		t.Errorf("QT overlap = %v, want 1.0", r.QTOverlap)
	}
	// Headline 2: with the hybrid graph PEPS sees more preferences, so the
	// lists diverge (similarity < 1) but shared tuples keep TA's order.
	if r.HybridSimilarity >= 0.999 {
		t.Errorf("hybrid similarity = %v, expected divergence", r.HybridSimilarity)
	}
	// Headline 3: PEPS finds at least as many high-intensity tuples.
	if r.PEPSAboveThr < r.TAAboveThr {
		t.Errorf("PEPS above-threshold %d < TA %d", r.PEPSAboveThr, r.TAAboveThr)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "similarity") {
		t.Error("render incomplete")
	}
}

func TestFig39PEPSTime(t *testing.T) {
	l := lab(t)
	r, err := RunFig39PEPSTime(l, l.Modest, []int{10, 50, 100}, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.CompleteT <= 0 || p.ApproxT <= 0 || p.QuantOnlyT <= 0 {
			t.Errorf("zero timing at k=%d", p.K)
		}
	}
	if r.PairBuildTime <= 0 {
		t.Error("no pair build time")
	}
}

func TestAblationComposition(t *testing.T) {
	r := RunAblationComposition()
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byName := map[string]CompositionRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
	}
	// Proposition 1: f∧ is order-independent; Proposition 2: f∨ is not.
	if byName["f_and (Eq 4.3)"].OrderSpread > 1e-9 {
		t.Errorf("f∧ order spread = %v", byName["f_and (Eq 4.3)"].OrderSpread)
	}
	if byName["f_or (Eq 4.4)"].OrderSpread <= 0 {
		t.Error("f∨ should be order-dependent")
	}
	if !byName["f_and (Eq 4.3)"].Inflationary {
		t.Error("f∧ should be inflationary")
	}
	if !byName["f_or (Eq 4.4)"].Reserved || !byName["avg"].Reserved {
		t.Error("f∨ and avg should be reserved")
	}
	if byName["min"].Inflationary {
		t.Error("min is not inflationary")
	}
}

func TestAblationPEPS(t *testing.T) {
	l := lab(t)
	r, err := RunAblationPEPS(l, l.Modest, 100, 12)
	if err != nil {
		t.Fatal(err)
	}
	if r.CompleteTuples == 0 {
		t.Fatal("complete returned nothing")
	}
	if r.ApproxExpanded > r.CompleteExpanded {
		t.Errorf("approximate expanded more (%d > %d)", r.ApproxExpanded, r.CompleteExpanded)
	}
	if r.Recall < 0 || r.Recall > 1 {
		t.Errorf("recall = %v", r.Recall)
	}
}

func TestAblationPairCache(t *testing.T) {
	l := lab(t)
	r, err := RunAblationPairCache(l, l.Modest, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.SQLQueries == 0 {
		t.Fatal("no SQL queries issued")
	}
	if r.CachedTime <= 0 || r.SQLTime <= 0 {
		t.Error("zero timings")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "speedup") {
		t.Error("render incomplete")
	}
}
