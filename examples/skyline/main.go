// Skyline demonstrates §1.4's observation that attribute-based preferences
// ("I want the cheapest hotel that is close to the beach", with price more
// important than distance) can be expressed in the predicate-based HYPRE
// graph: each attribute's "good" region becomes a ladder of predicate
// nodes, and a qualitative edge ranks the attributes against each other.
//
//	go run ./examples/skyline
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"hypre/internal/core"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run prints the example to w. It takes no arguments.
func run(w io.Writer, _ []string) error {
	db := relstore.NewDB()
	tbl, err := db.CreateTable("hotels",
		relstore.Column{Name: "id", Kind: predicate.KindInt},
		relstore.Column{Name: "name", Kind: predicate.KindString},
		relstore.Column{Name: "price", Kind: predicate.KindInt},
		relstore.Column{Name: "distance", Kind: predicate.KindInt}, // meters to beach
	)
	if err != nil {
		return err
	}
	hotels := []struct {
		id              int64
		name            string
		price, distance int64
	}{
		{1, "Budget Beach", 60, 150},
		{2, "Mid Mare", 110, 80},
		{3, "Grand Luxe", 260, 40},
		{4, "Cheap Inland", 45, 2100},
		{5, "Fair Deal", 95, 400},
		{6, "Pricey Far", 240, 1800},
	}
	for _, h := range hotels {
		if _, err := tbl.Insert(predicate.Int(h.id), predicate.String(h.name),
			predicate.Int(h.price), predicate.Int(h.distance)); err != nil {
			return err
		}
	}

	base := func(w predicate.Predicate) relstore.Query {
		return relstore.Query{From: "hotels", Where: w}
	}
	sys := core.NewSystemOver(db, base, "hotels.id")
	const traveler = int64(1)

	// The attribute preference <price, min> becomes a predicate ladder:
	// cheaper buckets carry higher intensity.
	if err := errors.Join(
		sys.AddQuantitative(traveler, `price<=80`, 0.9),
		sys.AddQuantitative(traveler, `price<=150`, 0.5),
		sys.AddQuantitative(traveler, `price<=300`, 0.1),
		// Likewise <distance, min>.
		sys.AddQuantitative(traveler, `distance<=100`, 0.7),
		sys.AddQuantitative(traveler, `distance<=500`, 0.4),
		sys.AddQuantitative(traveler, `distance<=2500`, 0.05),
	); err != nil {
		return err
	}
	// "Price is more important than distance": a qualitative edge between
	// the two ladders' top rungs. The conflict machinery keeps the order
	// consistent.
	if _, err := sys.AddQualitative(traveler, `price<=80`, `distance<=100`, 0.2); err != nil {
		return err
	}

	top, err := sys.TopK(traveler, 6, core.Complete)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "skyline-style ranking (price dominates distance):")
	for i, t := range top {
		row, _ := sys.TupleByKey("hotels", "id", t.PID)
		fmt.Fprintf(w, "  %d. %.4f  %s\n", i+1, t.Intensity,
			core.DescribeTuple(row, "name", "price", "distance"))
	}

	// Sanity of the skyline shape: the cheap-and-close hotel must beat the
	// expensive-and-close one, and the cheap-but-far one must beat the
	// expensive-and-far one.
	rank := map[int64]int{}
	for i, t := range top {
		rank[t.PID] = i
	}
	if rank[1] > rank[3] {
		return errors.New("Budget Beach should beat Grand Luxe")
	}
	if rank[4] > rank[6] {
		return errors.New("Cheap Inland should beat Pricey Far")
	}
	fmt.Fprintln(w, "\ndominance checks passed: cheaper hotels outrank pricier ones at")
	fmt.Fprintln(w, "comparable distance, matching the skyline the user asked for.")
	return nil
}
