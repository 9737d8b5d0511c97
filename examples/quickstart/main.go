// Quickstart: build a HYPRE system over the synthetic DBLP network, record
// a handful of preferences by hand, and ask for personalized Top-K results.
//
//	go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"hypre/internal/core"
	"hypre/internal/workload"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run prints the example to w. It takes no arguments.
func run(w io.Writer, _ []string) error {
	// 1. A dataset. NewSystem generates a small DBLP-like citation network;
	// use core.NewSystemOver to plug in your own tables instead.
	cfg := workload.DefaultConfig()
	cfg.NumPapers = 1000
	cfg.NumAuthors = 300
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}

	// 2. Preferences. Quantitative: a predicate plus an intensity in
	// [-1, 1]. Qualitative: "left is preferred over right" plus a strength
	// in [0, 1]. Negative intensities express dislike.
	const me = int64(7)
	if err := errors.Join(
		sys.AddQuantitative(me, `dblp.venue="VLDB"`, 0.8),
		sys.AddQuantitative(me, `dblp.venue="SIGMOD"`, 0.5),
		sys.AddQuantitative(me, `dblp.venue="INFOCOM"`, -0.6),
		sys.AddQuantitative(me, `dblp.year>=2010`, 0.4),
	); err != nil {
		return err
	}
	// "I like PODS a bit more than ICDE" — neither venue has a score yet;
	// HYPRE seeds one and derives the other (Eq. 4.1/4.2).
	if _, err := sys.AddQualitative(me, `dblp.venue="PODS"`, `dblp.venue="ICDE"`, 0.3); err != nil {
		return err
	}

	// 3. The converted profile: every preference now carries an intensity,
	// including the two that arrived only qualitatively.
	fmt.Fprintln(w, "profile (descending intensity):")
	for _, p := range sys.Profile(me) {
		fmt.Fprintf(w, "  %+0.4f  %s\n", p.Intensity, p.Pred)
	}

	// 4. The §4.6 query rewrite: OR within an attribute, AND across.
	text, intensity := sys.EnhancedQuery(me, 0)
	fmt.Fprintf(w, "\nenhanced WHERE (intensity %.4f):\n  %s\n", intensity, text)

	// 5. Personalized Top-K via PEPS.
	top, err := sys.TopK(me, 5, core.Complete)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\ntop-5 papers:")
	for i, t := range top {
		row, _ := sys.TupleByKey("dblp", "pid", t.PID)
		fmt.Fprintf(w, "  %d. %.4f  %s\n", i+1, t.Intensity,
			core.DescribeTuple(row, "venue", "year", "title"))
	}
	return nil
}
