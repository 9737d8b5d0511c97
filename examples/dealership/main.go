// Dealership reproduces the running example of §2.5 / §4.6.1 (Tables 5, 8
// and 9): three car preferences with different intensities, where
// Preference SQL returns the order t1, t3, t2 but the intensity-aware HYPRE
// model returns the expected t1, t2, t3.
//
//	go run ./examples/dealership
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"hypre/internal/core"
	"hypre/internal/predicate"
	"hypre/internal/prefsql"
	"hypre/internal/relstore"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run prints the example to w. It takes no arguments.
func run(w io.Writer, _ []string) error {
	// The dealership relation of Table 8.
	db := relstore.NewDB()
	tbl, err := db.CreateTable("dealership",
		relstore.Column{Name: "id", Kind: predicate.KindInt},
		relstore.Column{Name: "price", Kind: predicate.KindInt},
		relstore.Column{Name: "mileage", Kind: predicate.KindInt},
		relstore.Column{Name: "make", Kind: predicate.KindString},
	)
	if err != nil {
		return err
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
		if _, err := tbl.Insert(predicate.Int(c.id), predicate.Int(c.price),
			predicate.Int(c.mileage), predicate.String(c.make_)); err != nil {
			return err
		}
	}

	base := func(w predicate.Predicate) relstore.Query {
		return relstore.Query{From: "dealership", Where: w}
	}
	sys := core.NewSystemOver(db, base, "dealership.id")

	// Example 6's preferences with intensities.
	const buyer = int64(1)
	if err := errors.Join(
		sys.AddQuantitative(buyer, `price BETWEEN 7000 AND 16000`, 0.8),
		sys.AddQuantitative(buyer, `mileage BETWEEN 20000 AND 50000`, 0.5),
		sys.AddQuantitative(buyer, `make IN ("BMW","Honda")`, 0.2),
	); err != nil {
		return err
	}

	fmt.Fprintln(w, "preferences:")
	for _, p := range sys.Profile(buyer) {
		fmt.Fprintf(w, "  %0.1f  %s\n", p.Intensity, p.Pred)
	}

	top, err := sys.TopK(buyer, 3, core.Complete)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nHYPRE ranking (Table 9):")
	for i, t := range top {
		row, _ := sys.TupleByKey("dealership", "id", t.PID)
		fmt.Fprintf(w, "  %d. t%d  intensity %.2f  (%s)\n", i+1, t.PID, t.Intensity,
			core.DescribeTuple(row, "price", "mileage", "make"))
	}
	if top[0].PID != 1 || top[1].PID != 2 || top[2].PID != 3 {
		return fmt.Errorf("unexpected ranking: %+v", top)
	}
	fmt.Fprintln(w, "\nexpected order t1 > t2 > t3 confirmed.")

	// Now the same preferences through Preference SQL (§2.5's PREFERRING
	// clause) — which has no intensities, only a partial order.
	price := prefsql.Between{Attr: "price", Lo: 7000, Hi: 16000}
	mileage := prefsql.Between{Attr: "mileage", Lo: 20000, Hi: 50000}
	makeP := prefsql.In("make", predicate.String("BMW"), predicate.String("Honda"))
	pareto := prefsql.And(price, mileage, makeP)
	res, err := prefsql.Evaluate(db, relstore.Query{From: "dealership"}, pareto)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nPreference SQL, PREFERRING %s:\n", pareto)
	for li, level := range res.Levels {
		fmt.Fprintf(w, "  BMO level %d:", li)
		for _, r := range level {
			v, _ := r.Get("id")
			fmt.Fprintf(w, " t%d", v.AsInt())
		}
		fmt.Fprintln(w)
	}
	if lv2, lv3 := res.LevelOf("id", predicate.Int(2)), res.LevelOf("id", predicate.Int(3)); lv2 != lv3 {
		return fmt.Errorf("expected t2 and t3 tied under Pareto, got levels %d/%d", lv2, lv3)
	}
	fmt.Fprintln(w, "\nt2 and t3 land in the same BMO level: without intensity, Preference")
	fmt.Fprintln(w, "SQL cannot decide between them — the ambiguity HYPRE resolves above.")
	return nil
}
