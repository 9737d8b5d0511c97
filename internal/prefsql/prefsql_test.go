package prefsql

import (
	"strings"
	"testing"

	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// dealershipDB is the Table 5 / Table 8 fixture.
func dealershipDB(t *testing.T) *relstore.DB {
	t.Helper()
	db := relstore.NewDB()
	tbl, err := db.CreateTable("dealership",
		relstore.Column{Name: "id", Kind: predicate.KindInt},
		relstore.Column{Name: "price", Kind: predicate.KindInt},
		relstore.Column{Name: "mileage", Kind: predicate.KindInt},
		relstore.Column{Name: "make", Kind: predicate.KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	cars := []struct {
		id, price, mileage int64
		make_              string
	}{
		{1, 7000, 43489, "Honda"},
		{2, 16000, 35334, "VW"},
		{3, 20000, 49119, "Honda"},
	}
	for _, c := range cars {
		tbl.Insert(predicate.Int(c.id), predicate.Int(c.price),
			predicate.Int(c.mileage), predicate.String(c.make_))
	}
	return db
}

func carQuery() relstore.Query { return relstore.Query{From: "dealership"} }

func carPrefs() (price, mileage, make_ Preference) {
	price = Between{Attr: "price", Lo: 7000, Hi: 16000}
	mileage = Between{Attr: "mileage", Lo: 20000, Hi: 50000}
	make_ = In("make", predicate.String("BMW"), predicate.String("Honda"))
	return
}

func row(t *testing.T, kv ...any) predicate.MapRow {
	t.Helper()
	m := predicate.MapRow{}
	for i := 0; i+1 < len(kv); i += 2 {
		switch v := kv[i+1].(type) {
		case int:
			m[kv[i].(string)] = predicate.Int(int64(v))
		case string:
			m[kv[i].(string)] = predicate.String(v)
		default:
			t.Fatal("bad kv")
		}
	}
	return m
}

func TestBoolPreference(t *testing.T) {
	p := Bool{P: predicate.MustParse(`make="Honda"`)}
	honda := predicate.MapRow{"make": predicate.String("Honda")}
	vw := predicate.MapRow{"make": predicate.String("VW")}
	if !p.Better(honda, vw) || p.Better(vw, honda) || p.Better(honda, honda) {
		t.Error("Bool ordering wrong")
	}
}

func TestBetweenDistance(t *testing.T) {
	p := Between{Attr: "price", Lo: 7000, Hi: 16000}
	inside := row(t, "price", 12000)
	edge := row(t, "price", 16000)
	near := row(t, "price", 17000)
	far := row(t, "price", 25000)
	if p.Better(inside, edge) || p.Better(edge, inside) {
		t.Error("inside and edge should be indifferent")
	}
	if !p.Better(edge, near) || !p.Better(near, far) {
		t.Error("distance ordering wrong")
	}
	missing := predicate.MapRow{}
	if !p.Better(far, missing) {
		t.Error("missing attribute should be worst")
	}
}

func TestParetoIncomparability(t *testing.T) {
	price, mileage, make_ := carPrefs()
	pref := And(price, mileage, make_)
	t1 := row(t, "price", 7000, "mileage", 43489, "make", "Honda")
	t2 := row(t, "price", 16000, "mileage", 35334, "make", "VW")
	t3 := row(t, "price", 20000, "mileage", 49119, "make", "Honda")
	// t1 dominates both.
	if !pref.Better(t1, t2) || !pref.Better(t1, t3) {
		t.Error("t1 should dominate")
	}
	// The §2.5 problem: t2 and t3 are Pareto-incomparable — Preference SQL
	// has no intensity to break the tie.
	if pref.Better(t2, t3) || pref.Better(t3, t2) {
		t.Error("t2 and t3 should be incomparable under Pareto")
	}
}

func TestEvaluateBMOLevels(t *testing.T) {
	db := dealershipDB(t)
	price, mileage, make_ := carPrefs()
	res, err := Evaluate(db, carQuery(), And(price, mileage, make_))
	if err != nil {
		t.Fatal(err)
	}
	// Level 0 = {t1}; level 1 = {t2, t3} (incomparable).
	if len(res.Levels) != 2 {
		t.Fatalf("levels = %d", len(res.Levels))
	}
	if len(res.Levels[0]) != 1 || len(res.Levels[1]) != 2 {
		t.Fatalf("level sizes = %d/%d", len(res.Levels[0]), len(res.Levels[1]))
	}
	if got := res.LevelOf("id", predicate.Int(1)); got != 0 {
		t.Errorf("t1 level = %d", got)
	}
	if got := res.LevelOf("id", predicate.Int(2)); got != 1 {
		t.Errorf("t2 level = %d", got)
	}
	if got := res.LevelOf("id", predicate.Int(99)); got != -1 {
		t.Errorf("missing tuple level = %d", got)
	}
}

func TestEvaluateCycleGuard(t *testing.T) {
	// A deliberately malformed "preference" (a < b and b < a) must not
	// loop; everything lands in one level.
	db := dealershipDB(t)
	res, err := Evaluate(db, carQuery(), badPref{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, l := range res.Levels {
		total += len(l)
	}
	if total != 3 {
		t.Errorf("lost rows: %d", total)
	}
}

type badPref struct{}

func (badPref) Better(a, b predicate.Row) bool { return true } // cyclic nonsense
func (badPref) String() string                 { return "bad" }

func TestStrings(t *testing.T) {
	price, mileage, make_ := carPrefs()
	s := And(price, mileage, make_).String()
	if !strings.Contains(s, "AND") {
		t.Errorf("String = %q", s)
	}
}
