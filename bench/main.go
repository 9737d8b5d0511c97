// Command bench is the repository's one benchmark: four named workloads over
// the hypred serving stack, the end-to-end metrics a client of that stack
// sees (tracing off), and — as a separate traced run — per-layer metrics
// from a direct single-goroutine replay of the same seeded op sequence.
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory says how to read the numbers.
//
//	bash bench/run.sh --workload hot-read --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "one of hot-read, cold-read, mixed-rw, peps-direct")
		seed      = fs.Int64("seed", 1, "seed of the store, the profiles and the op sequence")
		seconds   = fs.Float64("seconds", 15, "length of the measured window")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
		scaleName = fs.String("scale", "full", "full, or smoke (tests only)")
		spansOut  = fs.String("out", "", "with -trace 1: write the spans to this file as JSON lines")
		jsonOut   = fs.String("json", "", "append the run's full record (stamp, every value measured) to this JSON-lines file")
		commit    = fs.String("commit", "unknown", "commit id to stamp into the record")
		runs      = fs.Int("runs", 1, "repeat the run in that many child processes and print median and quartiles")
		compare   = fs.Bool("compare", false, "compare two -json files: bench -compare A.json B.json")
		specPath  = fs.String("spec", "", "BENCHMARK.json, for -compare (default: ./ or ../)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two record files, got %d", fs.NArg()))
		}
		regressed, err := compareFiles(stdout, *specPath, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if regressed {
			return 1
		}
		return 0
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fail(fmt.Errorf("unknown scale %q", *scaleName))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	if *runs > 1 {
		if err := repeat(stdout, stderr, *runs, args); err != nil {
			return fail(err)
		}
		return 0
	}

	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, sc: sc}
	ctx := context.Background()
	var out *outcome
	var err error
	defs := endToEnd
	if *trace == 0 {
		out, err = runUntraced(ctx, cfg)
	} else {
		defs = perLayer
		out, err = runTraced(ctx, cfg, *spansOut)
	}
	if err != nil {
		return fail(err)
	}
	for _, e := range out.errs {
		fmt.Fprintln(stderr, "bench:", e)
	}

	line := resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	if line.Metrics, err = pick(defs, out.vals); err != nil {
		return fail(err)
	}
	st := newStamp(*seed, sc.name, *commit)
	fmt.Fprintf(stdout, "workload %s  seed %d  scale %s  seconds %g  trace %d  ops %s\n",
		cfg.workload, *seed, sc.name, *seconds, *trace, out.opsHash)
	fmt.Fprintf(stdout, "nproc %d  GOMAXPROCS %d  cpu %q  %s  commit %s\n",
		st.NProc, st.GOMAXPROCS, st.CPU, st.Go, st.Commit)
	printMetrics(stdout, out.vals, out.samples)
	if *jsonOut != "" {
		rec := &record{
			Stamp: st, Workload: cfg.workload, Trace: *trace, Seconds: *seconds,
			OpsHash: out.opsHash, resultLine: line, Samples: out.samples, Extra: map[string]float64{},
		}
		for name, v := range out.vals {
			if _, listed := line.Metrics[name]; !listed {
				rec.Extra[name] = v
			}
		}
		if err := appendRecord(*jsonOut, rec); err != nil {
			return fail(err)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !line.Correct {
		return 1
	}
	return 0
}
