package core

import (
	"strings"
	"testing"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
	"hypre/internal/workload"
)

func smallCfg() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.NumPapers = 400
	cfg.NumAuthors = 150
	cfg.NumVenues = 12
	return cfg
}

// venueOf is the venue name of the generated paper with the given pid.
func venueOf(sys *System, pid int64) string {
	if i, ok := sys.Net.PaperByPID[pid]; ok {
		return sys.Net.Venues[sys.Net.Papers[i].Venue]
	}
	return ""
}

func TestNewSystemAndManualPrefs(t *testing.T) {
	sys, err := NewSystem(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddQuantitative(1, `dblp.venue="VLDB"`, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddQuantitative(1, `dblp.venue="SIGMOD"`, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddQualitative(1, `dblp.venue="VLDB"`, `dblp.venue="ICDE"`, 0.4); err != nil {
		t.Fatal(err)
	}
	prof := sys.Profile(1)
	if len(prof) != 3 {
		t.Fatalf("profile = %d", len(prof))
	}
	top, err := sys.TopK(1, 5, Complete)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Fatal("no results")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Intensity > top[i-1].Intensity {
			t.Error("not descending")
		}
	}
}

func TestSystemPairTableInvalidation(t *testing.T) {
	sys, err := NewSystem(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	sys.AddQuantitative(1, `dblp.venue="VLDB"`, 0.8)
	if _, err := sys.TopK(1, 3, Complete); err != nil {
		t.Fatal(err)
	}
	// Adding a preference must invalidate the cached pair table.
	sys.AddQuantitative(1, `dblp.venue="SIGMOD"`, 0.6)
	top, err := sys.TopK(1, 3, Complete)
	if err != nil {
		t.Fatal(err)
	}
	foundSIGMOD := false
	for _, tu := range top {
		if venueOf(sys, tu.PID) == "SIGMOD" {
			foundSIGMOD = true
		}
	}
	_ = foundSIGMOD // SIGMOD tuples may or may not crack top-3; the real check:
	prof := sys.Profile(1)
	if len(prof) != 2 {
		t.Fatalf("profile = %d after second insert", len(prof))
	}
}

func TestSystemWithWorkload(t *testing.T) {
	sys, prefs, err := NewSystemWithWorkload(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(prefs.Users) == 0 {
		t.Fatal("no users")
	}
	uid := prefs.Users[0]
	top, err := sys.TopK(uid, 10, combine.Approximate)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Fatal("no personalized results")
	}
	base, err := sys.TopKBaseline(uid, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) == 0 {
		t.Fatal("no baseline results")
	}
}

func TestEnhancedQuery(t *testing.T) {
	sys, err := NewSystem(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	sys.AddQuantitative(2, `dblp.venue="INFOCOM"`, 0.23)
	sys.AddQuantitative(2, `dblp.venue="PODS"`, 0.14)
	sys.AddQuantitative(2, `dblp_author.aid=128`, 0.19)
	text, intensity := sys.EnhancedQuery(2, 0)
	if !strings.Contains(text, "OR") || !strings.Contains(text, "AND") {
		t.Errorf("enhanced = %q", text)
	}
	if intensity <= 0 {
		t.Errorf("intensity = %v", intensity)
	}
	capped, _ := sys.EnhancedQuery(2, 1)
	if strings.Contains(capped, "AND") {
		t.Errorf("capped enhanced = %q", capped)
	}
}

func TestSystemOverCustomDB(t *testing.T) {
	// The dealership scenario of §2.5 over a custom store.
	db := relstore.NewDB()
	tbl, _ := db.CreateTable("dealership",
		relstore.Column{Name: "id", Kind: predicate.KindInt},
		relstore.Column{Name: "price", Kind: predicate.KindInt},
		relstore.Column{Name: "mileage", Kind: predicate.KindInt},
		relstore.Column{Name: "make", Kind: predicate.KindString},
	)
	rows := []struct {
		id, price, mileage int64
		make_              string
	}{
		{1, 7000, 43489, "Honda"},
		{2, 16000, 35334, "VW"},
		{3, 20000, 49119, "Honda"},
	}
	for _, r := range rows {
		tbl.Insert(predicate.Int(r.id), predicate.Int(r.price),
			predicate.Int(r.mileage), predicate.String(r.make_))
	}
	base := func(w predicate.Predicate) relstore.Query {
		return relstore.Query{From: "dealership", Where: w}
	}
	sys := NewSystemOver(db, base, "dealership.id")
	sys.AddQuantitative(7, `price BETWEEN 7000 AND 16000`, 0.8)
	sys.AddQuantitative(7, `mileage BETWEEN 20000 AND 50000`, 0.5)
	sys.AddQuantitative(7, `make IN ("BMW","Honda")`, 0.2)
	top, err := sys.TopK(7, 3, Complete)
	if err != nil {
		t.Fatal(err)
	}
	// Table 9's expected ranking: t1 (0.92) > t2 (0.9) > t3 (0.6) — the
	// ordering Preference SQL gets wrong (§2.5).
	if len(top) != 3 || top[0].PID != 1 || top[1].PID != 2 || top[2].PID != 3 {
		t.Fatalf("ranking = %+v", top)
	}
	if top[0].Intensity < 0.919 || top[0].Intensity > 0.921 {
		t.Errorf("t1 intensity = %v, want 0.92", top[0].Intensity)
	}
}

func TestGroupTopK(t *testing.T) {
	sys, err := NewSystem(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	sys.AddQuantitative(1, `dblp.venue="VLDB"`, 0.9)
	sys.AddQuantitative(2, `dblp.venue="VLDB"`, 0.3)
	sys.AddQuantitative(2, `dblp.venue="SIGMOD"`, 0.8)
	top, err := sys.GroupTopK([]int64{1, 2}, hypre.GroupAverage, 5, Complete)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Fatal("no group results")
	}
	// Average strategy: VLDB = 0.6 beats SIGMOD = 0.8 held by one... no:
	// GroupAverage averages over holders, so SIGMOD keeps 0.8 and should
	// lead. Verify the top tuple is a SIGMOD paper.
	if got := venueOf(sys, top[0].PID); got != "SIGMOD" {
		t.Errorf("group top venue = %q, want SIGMOD", got)
	}
	// Least-misery flips it: VLDB min = 0.3, SIGMOD min = 0.8 — still
	// SIGMOD; most-pleasure keeps VLDB at 0.9 on top.
	topMP, err := sys.GroupTopK([]int64{1, 2}, hypre.GroupMostPleasure, 5, Complete)
	if err != nil {
		t.Fatal(err)
	}
	if got := venueOf(sys, topMP[0].PID); got != "VLDB" {
		t.Errorf("most-pleasure top venue = %q, want VLDB", got)
	}
	if _, err := sys.GroupTopK(nil, hypre.GroupAverage, 5, Complete); err == nil {
		t.Error("empty group accepted")
	}
}

func TestTupleByKeyAndDescribe(t *testing.T) {
	sys, err := NewSystem(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	row, ok := sys.TupleByKey("dblp", "pid", 1)
	if !ok {
		t.Fatal("paper 1 missing")
	}
	desc := DescribeTuple(row, "pid", "venue", "nonexistent")
	if !strings.Contains(desc, "pid=1") || !strings.Contains(desc, "nonexistent=?") {
		t.Errorf("desc = %q", desc)
	}
	if _, ok := sys.TupleByKey("nope", "pid", 1); ok {
		t.Error("unknown table resolved")
	}
	if _, ok := sys.TupleByKey("dblp", "pid", 10_000_000); ok {
		t.Error("unknown key resolved")
	}
}
