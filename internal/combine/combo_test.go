package combine

import (
	"math"
	"testing"

	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

func mustSP(t testing.TB, pred string, intensity float64) hypre.ScoredPred {
	t.Helper()
	p, err := hypre.NewScoredPred(pred, intensity)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// testDB builds the Table 6 DBLP instance with a dblp_author link table —
// the same fixture the paper's worked examples use.
func testDB(t *testing.T) *relstore.DB {
	t.Helper()
	return buildTestDB()
}

// buildTestDB is the *testing.T-free builder shared with the benchmarks.
func buildTestDB() *relstore.DB {
	return buildTestDBPids(func(pid int64) int64 { return pid })
}

// buildTestDBPids builds the same store with every pid sent through pidOf,
// in dblp and dblp_author alike; pidOf must be injective.
func buildTestDBPids(pidOf func(int64) int64) *relstore.DB {
	db := relstore.NewDB()
	dblp, err := db.CreateTable("dblp",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "venue", Kind: predicate.KindString},
		relstore.Column{Name: "year", Kind: predicate.KindInt},
	)
	if err != nil {
		panic(err)
	}
	papers := []struct {
		pid   int64
		venue string
		year  int64
	}{
		{1, "VLDB", 2000}, {2, "VLDB", 2006}, {3, "PVLDB", 2010},
		{4, "PVLDB", 2010}, {5, "PVLDB", 2009}, {6, "SIGMOD", 2010},
		{7, "SIGMOD", 2008}, {8, "INFOCOM", 2010}, {9, "INFOCOM", 2007},
	}
	for _, p := range papers {
		dblp.Insert(predicate.Int(pidOf(p.pid)), predicate.String(p.venue), predicate.Int(p.year))
	}
	da, err := db.CreateTable("dblp_author",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "aid", Kind: predicate.KindInt},
	)
	if err != nil {
		panic(err)
	}
	links := []struct{ pid, aid int64 }{
		{1, 1}, {1, 2}, {2, 2}, {3, 3}, {4, 4}, {5, 2},
		{6, 5}, {7, 1}, {8, 6}, {9, 6}, {9, 2},
	}
	for _, l := range links {
		da.Insert(predicate.Int(pidOf(l.pid)), predicate.Int(l.aid))
	}
	db.Table("dblp").BuildIndex("venue")
	db.Table("dblp_author").BuildIndex("pid")
	return db
}

func baseQuery(where predicate.Predicate) relstore.Query {
	return relstore.Query{
		From:  "dblp",
		Join:  &relstore.JoinSpec{Table: "dblp_author", LeftCol: "pid", RightCol: "pid"},
		Where: where,
	}
}

func testEvaluator(t *testing.T) *Evaluator {
	return NewEvaluator(testDB(t), baseQuery, "dblp.pid")
}

func TestComboAndOrStructure(t *testing.T) {
	v1 := mustSP(t, `dblp.venue="INFOCOM"`, 0.23)
	a1 := mustSP(t, `dblp_author.aid=2`, 0.19)
	a2 := mustSP(t, `dblp_author.aid=6`, 0.14)
	c := NewCombo(v1).And(a1).Or(a2)
	if len(c.Groups) != 2 {
		t.Fatalf("groups = %d", len(c.Groups))
	}
	if len(c.Groups[1]) != 2 {
		t.Fatalf("author group = %d members", len(c.Groups[1]))
	}
	if c.NumPreds() != 3 {
		t.Errorf("NumPreds = %d", c.NumPreds())
	}
	if !c.HasAttr("dblp.venue") || !c.HasAttr("dblp_author.aid") || c.HasAttr("x") {
		t.Error("HasAttr wrong")
	}
	if !c.HasAnd() || NewCombo(v1).HasAnd() {
		t.Error("HasAnd wrong")
	}
}

func TestComboOrWithoutMatchingGroupDegeneratesToAnd(t *testing.T) {
	v1 := mustSP(t, `dblp.venue="VLDB"`, 0.5)
	a1 := mustSP(t, `dblp_author.aid=2`, 0.3)
	c := NewCombo(v1).Or(a1)
	if len(c.Groups) != 2 {
		t.Fatalf("expected new group, got %v", c.Groups)
	}
}

func TestComboImmutability(t *testing.T) {
	v1 := mustSP(t, `dblp.venue="VLDB"`, 0.5)
	a1 := mustSP(t, `dblp_author.aid=2`, 0.3)
	a2 := mustSP(t, `dblp_author.aid=6`, 0.2)
	base := NewCombo(v1).And(a1)
	_ = base.Or(a2)
	if base.NumPreds() != 2 {
		t.Error("Or mutated the receiver")
	}
	_ = base.And(a2)
	if len(base.Groups) != 2 {
		t.Error("And mutated the receiver")
	}
}

func TestComboIntensity(t *testing.T) {
	v1 := mustSP(t, `dblp.venue="INFOCOM"`, 0.23)
	a1 := mustSP(t, `dblp_author.aid=2`, 0.19)
	a2 := mustSP(t, `dblp_author.aid=6`, 0.14)
	c := NewCombo(v1).And(a1).Or(a2)
	want := hypre.FAnd(0.23, hypre.FOrSeq(0.19, 0.14))
	if got := c.Intensity(); !almostEq(got, want) {
		t.Errorf("Intensity = %v, want %v", got, want)
	}
	// Pure AND combo matches FAndAll.
	c2 := NewCombo(v1).And(a1)
	if got := c2.Intensity(); !almostEq(got, hypre.FAndAll(0.23, 0.19)) {
		t.Errorf("AND intensity = %v", got)
	}
}

func TestComboWhereEvaluates(t *testing.T) {
	v1 := mustSP(t, `dblp.venue="INFOCOM"`, 0.23)
	a2 := mustSP(t, `dblp_author.aid=6`, 0.14)
	c := NewCombo(v1).And(a2)
	r := predicate.MapRow{
		"dblp.venue":      predicate.String("INFOCOM"),
		"dblp_author.aid": predicate.Int(6),
	}
	if !c.Where().Eval(r) {
		t.Error("combo WHERE should match")
	}
}

func TestRecordsHelpers(t *testing.T) {
	rs := Records{
		{NumPreds: 2, NumTuples: 0, Intensity: 0.9},
		{NumPreds: 2, NumTuples: 3, Intensity: 0.5},
		{NumPreds: 5, NumTuples: 1, Intensity: 0.7},
	}
	if got := rs.ByNumPreds(2); len(got) != 2 {
		t.Errorf("ByNumPreds = %d", len(got))
	}
}
