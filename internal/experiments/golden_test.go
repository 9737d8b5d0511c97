package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hypre/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from the current output")

// TestFiguresGolden pins the paper's deterministic tables and figures to a
// golden file: cmd/benchrunner -exp
// table10,table12,fig17,fig18,fig26,fig28,fig29,fig32,fig35,fig37 -papers
// 800 -authors 300 -venues 15 -cap 10 must print it byte for byte, under
// GOMAXPROCS=1 and the default alike. Run with -update to rewrite it.
func TestFiguresGolden(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumPapers, cfg.NumAuthors, cfg.NumVenues = 800, 300, 15
	want, err := ParseIDs("table10,table12,fig17,fig18,fig26,fig28,fig29,fig32,fig35,fig37")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "figures.golden")
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		var buf bytes.Buffer
		err := Run(&buf, cfg, want, 10, 200, 100)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(buf.Bytes(), golden) {
			continue
		}
		got, exp := strings.Split(buf.String(), "\n"), strings.Split(string(golden), "\n")
		for i := range min(len(got), len(exp)) {
			if got[i] != exp[i] {
				t.Fatalf("GOMAXPROCS=%d: line %d differs from %s:\n got %q\nwant %q", procs, i+1, path, got[i], exp[i])
			}
		}
		t.Fatalf("GOMAXPROCS=%d: %d lines, %s has %d", procs, len(got), path, len(exp))
	}
}
