package relstore

import (
	"fmt"
	"testing"

	"hypre/internal/predicate"
)

// TestAdaptiveDictMigration: a high-cardinality string column (every value
// distinct, like titles/abstracts) must abandon the dictionary for raw
// storage, a low-cardinality one (venues) must keep it, and query answers
// must be identical in both modes — before and after in-place updates.
func TestAdaptiveDictMigration(t *testing.T) {
	db := NewDB()
	tab, err := db.CreateTable("papers",
		Column{Name: "id", Kind: predicate.KindInt},
		Column{Name: "title", Kind: predicate.KindString},
		Column{Name: "venue", Kind: predicate.KindString})
	if err != nil {
		t.Fatal(err)
	}
	venues := []string{"VLDB", "SIGMOD", "PODS"}
	const n = 1500
	for i := 0; i < n; i++ {
		if _, err := tab.Insert(predicate.Int(int64(i)),
			predicate.String(fmt.Sprintf("Unique title %d", i)),
			predicate.String(venues[i%len(venues)])); err != nil {
			t.Fatal(err)
		}
	}
	titleCol := tab.cols[tab.ColumnIndex("title")]
	venueCol := tab.cols[tab.ColumnIndex("venue")]
	if !titleCol.rawMode {
		t.Fatalf("title column (all-distinct, %d rows) did not migrate to raw storage", n)
	}
	if venueCol.rawMode {
		t.Fatal("venue column (3 distinct values) migrated to raw storage")
	}

	// Equality, range, and IN scans on the raw-mode column.
	q := Query{From: "papers", Where: &predicate.Cmp{
		Attr: "title", Op: predicate.OpEq, Val: predicate.String("Unique title 700")}}
	rows, err := db.Select(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Left.id != 700 {
		t.Fatalf("raw-mode equality scan: got %d rows", len(rows))
	}
	cnt, err := db.Count(Query{From: "papers", Where: &predicate.In{
		Attr: "title", Vals: []predicate.Value{
			predicate.String("Unique title 3"), predicate.String("Unique title 4"),
			predicate.String("no such title")}}})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 2 {
		t.Fatalf("raw-mode IN scan: got %d rows, want 2", cnt)
	}

	// Updates on a raw-mode column stay consistent.
	if err := tab.UpdateCol(700, "title", predicate.String("Renamed")); err != nil {
		t.Fatal(err)
	}
	cnt, err = db.Count(q)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 0 {
		t.Fatalf("updated-away title still matches: %d rows", cnt)
	}
	cnt, err = db.Count(Query{From: "papers", Where: &predicate.Cmp{
		Attr: "title", Op: predicate.OpEq, Val: predicate.String("Renamed")}})
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 1 {
		t.Fatalf("renamed title not found: %d rows", cnt)
	}

	// The dictionary-mode column still answers through codes.
	cnt, err = db.Count(Query{From: "papers", Where: &predicate.Cmp{
		Attr: "venue", Op: predicate.OpEq, Val: predicate.String("VLDB")}})
	if err != nil {
		t.Fatal(err)
	}
	if want := (n + 2) / 3; cnt != want {
		t.Fatalf("dict-mode equality scan: got %d rows, want %d", cnt, want)
	}
}
