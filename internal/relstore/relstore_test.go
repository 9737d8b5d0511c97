package relstore

import (
	"math"
	"testing"

	"hypre/internal/predicate"
)

func i(v int64) predicate.Value   { return predicate.Int(v) }
func s(v string) predicate.Value  { return predicate.String(v) }
func f(v float64) predicate.Value { return predicate.Float(v) }

// paperDB builds the Movie relation of Table 3.
func movieDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	tbl, err := db.CreateTable("movies",
		Column{"mid", predicate.KindString},
		Column{"title", predicate.KindString},
		Column{"year", predicate.KindInt},
		Column{"director", predicate.KindString},
		Column{"genre", predicate.KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]predicate.Value{
		{s("m1"), s("Casablanca"), i(1942), s("M. Curtiz"), s("drama")},
		{s("m2"), s("Psycho"), i(1960), s("A. Hitchcock"), s("horror")},
		{s("m3"), s("Schindler's List"), i(1993), s("S. Spielberg"), s("drama")},
		{s("m4"), s("White Christmas"), i(1954), s("M. Curtiz"), s("comedy")},
		{s("m5"), s("The Adventures of Tintin"), i(2011), s("S. Spielberg"), s("comedy")},
		{s("m6"), s("The Girl on the Train"), i(2013), s("L. Brand"), s("thriller")},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("t"); err == nil {
		t.Error("zero-column table should fail")
	}
	if _, err := db.CreateTable("t", Column{"a", predicate.KindInt}, Column{"a", predicate.KindInt}); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := db.CreateTable("ok", Column{"a", predicate.KindInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("ok", Column{"a", predicate.KindInt}); err == nil {
		t.Error("duplicate table should fail")
	}
}

func TestInsertArityMismatch(t *testing.T) {
	db := NewDB()
	tbl, _ := db.CreateTable("t", Column{"a", predicate.KindInt}, Column{"b", predicate.KindInt})
	if _, err := tbl.Insert(i(1)); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := tbl.Insert(i(1), i(2), i(3)); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestSelectFullScan(t *testing.T) {
	db := movieDB(t)
	rows, err := db.Select(Query{From: "movies", Where: predicate.MustParse(`genre="drama"`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("drama count = %d, want 2", len(rows))
	}
}

func TestSelectQualifiedAttr(t *testing.T) {
	db := movieDB(t)
	rows, err := db.Select(Query{From: "movies", Where: predicate.MustParse(`movies.genre="comedy" AND movies.year>2000`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	if v, _ := rows[0].Get("mid"); v.AsString() != "m5" {
		t.Errorf("got %v", v)
	}
}

func TestSelectWrongTableQualifier(t *testing.T) {
	db := movieDB(t)
	rows, err := db.Select(Query{From: "movies", Where: predicate.MustParse(`other.genre="comedy"`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("wrong qualifier matched %d rows", len(rows))
	}
}

func TestSelectLimit(t *testing.T) {
	db := movieDB(t)
	rows, err := db.Select(Query{From: "movies", Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("limit ignored: %d", len(rows))
	}
}

func TestSelectUnknownTable(t *testing.T) {
	db := movieDB(t)
	if _, err := db.Select(Query{From: "nope"}); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestIndexLookupMatchesScan(t *testing.T) {
	db := movieDB(t)
	tbl := db.Table("movies")
	where := predicate.MustParse(`genre="comedy"`)
	scan, _ := db.Select(Query{From: "movies", Where: where})
	if err := tbl.BuildIndex("genre"); err != nil {
		t.Fatal(err)
	}
	indexed, _ := db.Select(Query{From: "movies", Where: where})
	if len(scan) != len(indexed) {
		t.Fatalf("index path %d rows, scan path %d", len(indexed), len(scan))
	}
}

func TestIndexedOrUnion(t *testing.T) {
	db := movieDB(t)
	db.Table("movies").BuildIndex("genre")
	where := predicate.MustParse(`genre="comedy" OR genre="drama"`)
	n, err := db.Count(Query{From: "movies", Where: where})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("OR union count = %d, want 4", n)
	}
}

func TestIndexedInLookup(t *testing.T) {
	db := movieDB(t)
	db.Table("movies").BuildIndex("director")
	n, err := db.Count(Query{From: "movies", Where: predicate.MustParse(`director IN ("M. Curtiz","L. Brand")`)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("IN count = %d, want 3", n)
	}
}

func TestIndexedAndPicksCandidates(t *testing.T) {
	db := movieDB(t)
	db.Table("movies").BuildIndex("genre")
	// AND with one indexable conjunct must still apply the full predicate.
	n, err := db.Count(Query{From: "movies", Where: predicate.MustParse(`genre="comedy" AND year<2000`)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("count = %d, want 1 (White Christmas)", n)
	}
}

func TestInsertUpdatesExistingIndex(t *testing.T) {
	db := movieDB(t)
	tbl := db.Table("movies")
	tbl.BuildIndex("genre")
	tbl.Insert(s("m7"), s("New Comedy"), i(2014), s("X"), s("comedy"))
	n, _ := db.Count(Query{From: "movies", Where: predicate.MustParse(`genre="comedy"`)})
	if n != 3 {
		t.Fatalf("after insert, comedy count = %d, want 3", n)
	}
}

func TestBuildIndexUnknownColumn(t *testing.T) {
	db := movieDB(t)
	if err := db.Table("movies").BuildIndex("nope"); err == nil {
		t.Error("indexing unknown column should fail")
	}
}

func TestCountDistinct(t *testing.T) {
	db := movieDB(t)
	n, err := db.CountDistinct(Query{From: "movies"}, "director")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("distinct directors = %d, want 4", n)
	}
	n, _ = db.CountDistinct(Query{From: "movies"}, "genre")
	if n != 4 {
		t.Fatalf("distinct genres = %d, want 4", n)
	}
}

func TestDistinctValuesOrderAndDedup(t *testing.T) {
	db := movieDB(t)
	vals, err := db.DistinctValues(Query{From: "movies"}, "genre")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 4 || vals[0].AsString() != "drama" || vals[1].AsString() != "horror" {
		t.Fatalf("distinct values = %v", vals)
	}
}

// TestDistinctNaNOnce: every NaN is one DISTINCT value, as Value.Key
// encodes it.
func TestDistinctNaNOnce(t *testing.T) {
	db := NewDB()
	tbl, err := db.CreateTable("m", Column{"x", predicate.KindFloat})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []predicate.Value{f(math.NaN()), f(2), f(math.NaN()), f(2), f(2.5)} {
		if _, err := tbl.Insert(v); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := db.DistinctValues(Query{From: "m"}, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 || !math.IsNaN(vals[0].AsFloat()) || vals[1].AsFloat() != 2 || vals[2].AsFloat() != 2.5 {
		t.Fatalf("distinct values = %v, want [NaN 2 2.5]", vals)
	}
	if n, err := db.CountDistinct(Query{From: "m"}, "x"); err != nil || n != 3 {
		t.Fatalf("CountDistinct = %d, %v; want 3", n, err)
	}
}

func TestStats(t *testing.T) {
	db := movieDB(t)
	st := db.Stats()
	if len(st) != 1 || st[0].Name != "movies" || st[0].Arity != 5 || st[0].Cardinality != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestValueAccessor(t *testing.T) {
	db := movieDB(t)
	tbl := db.Table("movies")
	if v := tbl.Value(0, "title"); v.AsString() != "Casablanca" {
		t.Errorf("Value = %v", v)
	}
	if v := tbl.Value(0, "nope"); !v.IsNull() {
		t.Errorf("unknown column should be NULL, got %v", v)
	}
	if v := tbl.Value(99, "title"); !v.IsNull() {
		t.Errorf("out-of-range row should be NULL, got %v", v)
	}
}
