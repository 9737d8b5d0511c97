// Command hypre is a small CLI around the HYPRE system: it generates the
// synthetic DBLP workload, builds every user's preference graph, and
// answers personalized Top-K queries.
//
// Subcommands:
//
//	hypre stats                      dataset and graph statistics
//	hypre profile -uid N [-n 20]     a user's converted preference profile
//	hypre enhance -uid N [-n 10]     the §4.6 rewritten WHERE clause
//	hypre topk -uid N [-k 10]        PEPS Top-K vs the TA baseline
//	hypre cypher -q "START ..."      run a Cypher query on the graph store
//	hypre demo                       a guided end-to-end walk-through
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hypre/internal/core"
	"hypre/internal/workload"
)

func main() {
	err := run(os.Stdout, os.Args[1:])
	if errors.Is(err, errUsage) {
		fmt.Fprintln(os.Stderr, `usage: hypre <stats|profile|enhance|topk|cypher|demo> [flags]
run "hypre <subcommand> -h" for flags`)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hypre:", err)
		os.Exit(1)
	}
}

// errUsage reports a missing or unknown subcommand.
var errUsage = errors.New("usage")

// run runs the subcommand args[0] with the flags after it, printing to w.
func run(w io.Writer, args []string) error {
	if len(args) == 0 {
		return errUsage
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var (
		papers  = fs.Int("papers", 2000, "papers in the synthetic network")
		authors = fs.Int("authors", 600, "authors")
		seed    = fs.Int64("seed", 42, "generator seed")
		uid     = fs.Int64("uid", -1, "user id (author id); -1 picks the busiest user")
		k       = fs.Int("k", 10, "result count for topk")
		n       = fs.Int("n", 20, "preference count to display")
		query   = fs.String("q", "", "Cypher query text")
	)
	fs.Parse(args[1:])

	cfg := workload.DefaultConfig()
	cfg.NumPapers = *papers
	cfg.NumAuthors = *authors
	cfg.Seed = *seed

	sys, prefs, err := core.NewSystemWithWorkload(cfg)
	if err != nil {
		return err
	}
	if *uid < 0 {
		*uid, _ = prefs.PickUsers(170, 50)
	}

	switch cmd {
	case "stats":
		fmt.Fprintln(w, "dataset:")
		for _, s := range sys.DB.Stats() {
			fmt.Fprintf(w, "  %-14s arity=%d cardinality=%d\n", s.Name, s.Arity, s.Cardinality)
		}
		st := sys.Graph.GraphStats()
		fmt.Fprintf(w, "preference graph: %d nodes, %d edges (%d PREFERS, %d CYCLE, %d DISCARD)\n",
			st.Nodes, st.Edges, st.Prefers, st.Cycles, st.Discards)
		fmt.Fprintf(w, "users with preferences: %d\n", len(prefs.Users))

	case "profile":
		prof := sys.Profile(*uid)
		fmt.Fprintf(w, "profile of uid=%d (%d positive preferences):\n", *uid, len(prof))
		for i, p := range prof {
			if i >= *n {
				fmt.Fprintf(w, "  ... %d more\n", len(prof)-i)
				break
			}
			fmt.Fprintf(w, "  %8.4f  %s\n", p.Intensity, p.Pred)
		}

	case "enhance":
		text, intensity := sys.EnhancedQuery(*uid, *n)
		fmt.Fprintf(w, "SELECT * FROM dblp JOIN dblp_author ON dblp.pid = dblp_author.pid\nWHERE %s;\n", text)
		fmt.Fprintf(w, "-- combined intensity %.4f\n", intensity)

	case "topk":
		top, err := sys.TopK(*uid, *k, core.Complete)
		if err != nil {
			return err
		}
		base, err := sys.TopKBaseline(*uid, *k)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Top-%d for uid=%d (PEPS | TA baseline):\n", *k, *uid)
		for i := 0; i < *k; i++ {
			left, right := "-", "-"
			if i < len(top) {
				row, _ := sys.TupleByKey("dblp", "pid", top[i].PID)
				left = fmt.Sprintf("%.4f %s", top[i].Intensity, core.DescribeTuple(row, "pid", "venue", "year"))
			}
			if i < len(base) {
				right = fmt.Sprintf("%.4f pid=%d", base[i].Intensity, base[i].PID)
			}
			fmt.Fprintf(w, "%3d. %-48s | %s\n", i+1, left, right)
		}

	case "cypher":
		if *query == "" {
			return errors.New("cypher requires -q")
		}
		res, err := sys.Graph.Store().Query(*query)
		if err != nil {
			return err
		}
		for _, c := range res.Columns {
			fmt.Fprintf(w, "%-28s", c)
		}
		fmt.Fprintln(w)
		for _, row := range res.Rows {
			for _, v := range row {
				fmt.Fprintf(w, "%-28s", v.AsString())
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "(%d rows)\n", len(res.Rows))

	case "demo":
		return demo(w, sys, prefs, *uid, *k)

	default:
		return errUsage
	}
	return nil
}

func demo(w io.Writer, sys *core.System, prefs *workload.Prefs, uid int64, k int) error {
	fmt.Fprintf(w, "== HYPRE demo: personalized paper search for uid=%d ==\n\n", uid)
	prof := sys.Profile(uid)
	fmt.Fprintf(w, "1. Profile: %d usable preferences after qualitative conversion.\n", len(prof))
	show := len(prof)
	if show > 5 {
		show = 5
	}
	for _, p := range prof[:show] {
		fmt.Fprintf(w, "   %8.4f  %s\n", p.Intensity, p.Pred)
	}
	qt, ql := prefs.UserPrefs(uid)
	fmt.Fprintf(w, "\n2. The user originally supplied %d quantitative and %d qualitative preferences;\n", len(qt), len(ql))
	fmt.Fprintf(w, "   intensity propagation (Eq 4.1/4.2) converted the qualitative ones into usable scores.\n")

	text, intensity := sys.EnhancedQuery(uid, 6)
	fmt.Fprintf(w, "\n3. Preference-enhanced query (mixed AND/OR semantics, intensity %.4f):\n   WHERE %s\n", intensity, text)

	top, err := sys.TopK(uid, k, core.Complete)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n4. Top-%d papers by combined intensity (PEPS):\n", k)
	for i, tu := range top {
		row, _ := sys.TupleByKey("dblp", "pid", tu.PID)
		fmt.Fprintf(w, "   %2d. %.4f  %s\n", i+1, tu.Intensity, core.DescribeTuple(row, "venue", "year", "title"))
	}
	return nil
}
