package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"hypre/internal/golden"
)

// TestOutputGolden pins the example's output byte for byte. Run with
// -update to rewrite testdata/output.golden.
func TestOutputGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, nil); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "output.golden"), buf.Bytes())
}
