// Command benchrunner regenerates every table and figure of the
// dissertation's evaluation (see DESIGN.md's per-experiment index) over the
// synthetic DBLP workload and prints the series to stdout.
//
// Usage:
//
//	benchrunner [-exp all|table10,fig28,...] [-papers N] [-authors N]
//	            [-venues N] [-seed N] [-cap N] [-k N] [-runs N]
//
// Performance is measured elsewhere: bench/run.sh drives the serving stack
// and the PEPS library path as named workloads (see bench/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hypre/internal/experiments"
	"hypre/internal/workload"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(experiments.IDs, ",")+") or 'all'")
		papers  = flag.Int("papers", 4000, "number of papers in the synthetic network")
		authors = flag.Int("authors", 1200, "number of authors")
		venues  = flag.Int("venues", 40, "number of venues")
		seed    = flag.Int64("seed", 42, "generator seed")
		cap_    = flag.Int("cap", 20, "profile cap for combination experiments (0 = full profile)")
		k       = flag.Int("k", 200, "K for Top-K experiments")
		runs    = flag.Int("runs", 100, "seeded runs for the Bias-Random scatter")
		cites   = flag.Float64("cites", 3, "mean citations per paper")
		zipf    = flag.Float64("zipf", 1.3, "venue/author popularity skew (>1)")
	)
	flag.Parse()

	// Validate before building the lab: a stale id must fail fast, not
	// print the header and exit 0 having run nothing.
	want, err := experiments.ParseIDs(*exp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}

	cfg := workload.DefaultConfig()
	cfg.NumPapers = *papers
	cfg.NumAuthors = *authors
	cfg.NumVenues = *venues
	cfg.Seed = *seed
	cfg.MeanCitations = *cites
	cfg.ZipfS = *zipf
	if err := experiments.Run(os.Stdout, cfg, want, *cap_, *k, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}
