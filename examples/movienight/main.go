// Movienight combines three pieces the dissertation's background chapter
// surveys and its future-work section targets: contextual preferences
// (Definition 11 / Fig. 2), a CP-net (Definition 12 / Fig. 3), and HYPRE
// group profiles (§8.2). A household picks a movie: the current context
// selects which preferences apply, the CP-net orders genre/director
// combinations, and the group profile merges the members' intensities for
// the final personalized Top-K.
//
//	go run ./examples/movienight
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"hypre/internal/core"
	"hypre/internal/cpnet"
	"hypre/internal/ctxpref"
	"hypre/internal/hypre"
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
	// --- The movie relation (Table 3, extended). ---
	db := relstore.NewDB()
	tbl, err := db.CreateTable("movies",
		relstore.Column{Name: "mid", Kind: predicate.KindInt},
		relstore.Column{Name: "title", Kind: predicate.KindString},
		relstore.Column{Name: "year", Kind: predicate.KindInt},
		relstore.Column{Name: "director", Kind: predicate.KindString},
		relstore.Column{Name: "genre", Kind: predicate.KindString},
	)
	if err != nil {
		return err
	}
	movies := []struct {
		mid             int64
		title           string
		year            int64
		director, genre string
	}{
		{1, "Casablanca", 1942, "M.Curtiz", "drama"},
		{2, "Psycho", 1960, "A.Hitchcock", "horror"},
		{3, "Schindler's List", 1993, "S.Spielberg", "drama"},
		{4, "White Christmas", 1954, "M.Curtiz", "comedy"},
		{5, "The Adventures of Tintin", 2011, "S.Spielberg", "comedy"},
		{6, "Annie Hall", 1977, "W.Allen", "comedy"},
		{7, "Match Point", 2005, "W.Allen", "drama"},
	}
	for _, m := range movies {
		tbl.Insert(predicate.Int(m.mid), predicate.String(m.title),
			predicate.Int(m.year), predicate.String(m.director), predicate.String(m.genre))
	}

	// --- 1. Context: what applies tonight? ---
	company := ctxpref.NewHierarchy("company")
	weather := ctxpref.NewHierarchy("weather")
	if err := errors.Join(
		company.Add("friends", ctxpref.All),
		company.Add("family", ctxpref.All),
		weather.Add("good", ctxpref.All),
		weather.Add("rainy", ctxpref.All),
	); err != nil {
		return err
	}
	model := ctxpref.NewModel(company, weather)

	entries := []ctxpref.Entry{
		{State: ctxpref.State{"friends", "rainy"}, Pref: sp(`genre="comedy"`, 0.9)},
		{State: ctxpref.State{"family", ctxpref.All}, Pref: sp(`genre="drama"`, 0.7)},
		{State: ctxpref.State{ctxpref.All, "rainy"}, Pref: sp(`year>=1970`, 0.4)},
		{State: ctxpref.State{ctxpref.All, ctxpref.All}, Pref: sp(`genre="horror"`, -0.5)},
	}
	cg, err := ctxpref.Build(model, entries)
	if err != nil {
		return err
	}
	tonight := ctxpref.State{"friends", "rainy"}
	ctxPrefs, err := cg.Resolve(tonight)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "context %v activates %d preferences (most specific first):\n", tonight, len(ctxPrefs))
	for _, p := range ctxPrefs {
		fmt.Fprintf(w, "  %+0.2f  %s\n", p.Intensity, p.Pred)
	}

	// --- 2. CP-net: conditional taste (Fig. 3). ---
	n := cpnet.New()
	if err := errors.Join(
		n.AddAttr("genre", "comedy", "drama"),
		n.AddAttr("director", "W.Allen", "M.Curtiz"),
		n.SetParents("director", "genre"),
		n.SetCPT("genre", nil, "comedy", "drama"),
		n.SetCPT("director", map[string]string{"genre": "comedy"}, "W.Allen", "M.Curtiz"),
		n.SetCPT("director", map[string]string{"genre": "drama"}, "M.Curtiz", "W.Allen"),
	); err != nil {
		return err
	}
	order, err := n.Order()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nCP-net outcome order (ceteris paribus):")
	for i, o := range order {
		fmt.Fprintf(w, "  %d. %s by %s\n", i+1, o["genre"], o["director"])
	}

	// --- 3. Group profile: merge the household's tastes in HYPRE. ---
	base := func(w predicate.Predicate) relstore.Query {
		return relstore.Query{From: "movies", Where: w}
	}
	sys := core.NewSystemOver(db, base, "movies.mid")
	// Ana (1) follows tonight's context; the CP-net's top outcomes become
	// her qualitative edge.
	for _, p := range ctxPrefs {
		if err := sys.AddQuantitative(1, p.Pred, p.Intensity); err != nil {
			return err
		}
	}
	if _, err := sys.AddQualitative(1, `director="W.Allen"`, `director="M.Curtiz"`, 0.3); err != nil {
		return err
	}
	// Ben (2) is a Spielberg drama person who dislikes old movies.
	if err := errors.Join(
		sys.AddQuantitative(2, `director="S.Spielberg"`, 0.8),
		sys.AddQuantitative(2, `genre="drama"`, 0.5),
		sys.AddQuantitative(2, `year<1960`, -0.4),
	); err != nil {
		return err
	}

	group, err := sys.Graph.GroupProfile([]int64{1, 2}, hypre.GroupAverage)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ngroup profile (average strategy):")
	for _, p := range group {
		fmt.Fprintf(w, "  %+0.3f  %s\n", p.Intensity, p.Pred)
	}

	top, err := sys.GroupTopK([]int64{1, 2}, hypre.GroupAverage, 3, core.Complete)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ntonight's top-3 for the household:")
	for i, t := range top {
		row, _ := sys.TupleByKey("movies", "mid", t.PID)
		fmt.Fprintf(w, "  %d. %.4f  %s\n", i+1, t.Intensity,
			core.DescribeTuple(row, "title", "genre", "director", "year"))
	}
	if len(top) == 0 {
		return errors.New("no recommendation")
	}
	return nil
}

// sp parses a literal preference; a malformed literal is a bug here.
func sp(pred string, in float64) hypre.ScoredPred {
	p, err := hypre.NewScoredPred(pred, in)
	if err != nil {
		panic(err)
	}
	return p
}
