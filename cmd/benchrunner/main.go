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
	"slices"
	"strings"

	"hypre/internal/experiments"
	"hypre/internal/workload"
)

// expIDs are the experiment ids -exp accepts, in the order they print.
var expIDs = []string{
	"table10", "table11", "table12", "fig13", "fig17", "fig18", "fig26",
	"fig28", "fig29", "fig32", "fig35", "fig37", "fig39", "ablation",
}

// parseExp validates a comma-separated -exp list against expIDs; "all"
// selects every experiment.
func parseExp(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		id := strings.TrimSpace(strings.ToLower(e))
		if id != "all" && !slices.Contains(expIDs, id) {
			return nil, fmt.Errorf("unknown experiment %q; valid ids: all,%s", id, strings.Join(expIDs, ","))
		}
		want[id] = true
	}
	return want, nil
}

func main() {
	var (
		exp     = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(expIDs, ",")+") or 'all'")
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
	want, err := parseExp(*exp)
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

	fmt.Printf("# HYPRE experiment harness: %d papers, %d authors, %d venues (seed %d)\n",
		*papers, *authors, *venues, *seed)
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# exemplar users: rich uid=%d (%d prefs), modest uid=%d (%d prefs)\n\n",
		lab.Rich, lab.Prefs.CountByUser()[lab.Rich],
		lab.Modest, lab.Prefs.CountByUser()[lab.Modest])

	all := want["all"]
	run := func(id string) bool { return all || want[id] }
	out := os.Stdout
	if run("table10") {
		experiments.RunTable10(lab).Render(out)
		fmt.Println()
	}
	if run("table11") {
		r, err := experiments.RunTable11(lab)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Println()
	}
	if run("table12") {
		r, err := experiments.RunTable12(lab, lab.Modest)
		if err != nil {
			fatal(err)
		}
		r.Render(out)
		fmt.Println()
	}
	if run("fig13") {
		experiments.RunFig13(7, 50000).Render(out)
		fmt.Println()
	}
	if run("fig17") {
		experiments.RunFig17(lab).Render(out)
		fmt.Println()
	}
	if run("fig18") {
		for _, uid := range lab.Users() {
			r, err := experiments.RunFig18Utility(lab, uid, *cap_)
			if err != nil {
				fatal(err)
			}
			r.Render(out)
			r.RenderTuplesIntensity(out)
			fmt.Println()
		}
	}
	if run("fig26") {
		for _, uid := range lab.Users() {
			experiments.RunFig26PrefGrowth(lab, uid).Render(out)
		}
		fmt.Println()
	}
	if run("fig28") {
		for _, uid := range lab.Users() {
			r, err := experiments.RunFig28Coverage(lab, uid)
			if err != nil {
				fatal(err)
			}
			r.Render(out)
		}
		fmt.Println()
	}
	if run("fig29") {
		for _, uid := range lab.Users() {
			r, err := experiments.RunFig29CombineTwo(lab, uid, *cap_)
			if err != nil {
				fatal(err)
			}
			r.Render(out)
		}
		fmt.Println()
	}
	if run("fig32") {
		for _, uid := range lab.Users() {
			r, err := experiments.RunFig32PartiallyCombineAll(lab, uid, *cap_)
			if err != nil {
				fatal(err)
			}
			r.Render(out)
		}
		fmt.Println()
	}
	if run("fig35") {
		for _, uid := range lab.Users() {
			r, err := experiments.RunFig35BiasRandom(lab, uid, *cap_, *runs)
			if err != nil {
				fatal(err)
			}
			r.Render(out)
		}
		fmt.Println()
	}
	if run("fig37") {
		for _, uid := range lab.Users() {
			r, err := experiments.RunFig37PEPSvsTA(lab, uid, *k, *cap_)
			if err != nil {
				fatal(err)
			}
			r.Render(out)
		}
		fmt.Println()
	}
	if run("fig39") {
		ks := []int{10, 100, 200, 300, 400, 500, 600, 700, 800}
		for _, uid := range lab.Users() {
			r, err := experiments.RunFig39PEPSTime(lab, uid, ks, 3, *cap_)
			if err != nil {
				fatal(err)
			}
			r.Render(out)
		}
		fmt.Println()
	}
	if run("ablation") {
		experiments.RunAblationComposition().Render(out)
		fmt.Println()
		r2, err := experiments.RunAblationPEPS(lab, lab.Modest, *k, *cap_)
		if err != nil {
			fatal(err)
		}
		r2.Render(out)
		fmt.Println()
		r3, err := experiments.RunAblationPairCache(lab, lab.Modest, min(*cap_, 12))
		if err != nil {
			fatal(err)
		}
		r3.Render(out)
		fmt.Println()
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}
