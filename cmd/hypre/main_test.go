package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"hypre/internal/golden"
)

// TestOutputGolden pins hypre demo and hypre topk -k 8 byte for byte. Run
// with -update to rewrite the files under testdata.
func TestOutputGolden(t *testing.T) {
	for _, c := range []struct {
		file string
		args []string
	}{
		{"demo.golden", []string{"demo"}},
		{"topk.golden", []string{"topk", "-k", "8"}},
	} {
		var buf bytes.Buffer
		if err := run(&buf, c.args); err != nil {
			t.Fatal(err)
		}
		golden.Check(t, filepath.Join("testdata", c.file), buf.Bytes())
	}
}
