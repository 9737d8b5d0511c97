package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"hypre/internal/golden"
	"hypre/internal/workload"
)

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
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			prev := runtime.GOMAXPROCS(procs)
			var buf bytes.Buffer
			err := Run(&buf, cfg, want, 10, 200, 100)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", "figures.golden"), buf.Bytes())
		})
	}
}
