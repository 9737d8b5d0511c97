// Package golden compares a test's output with a golden file. Run the test
// with -update to rewrite the file from the current output.
package golden

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output")

// Check fails t unless got equals the file at path, naming the first line
// that differs. Under -update it writes got to path first.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("line %d differs from %s:\n got %q\nwant %q", i+1, path, g[i], w[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(g), path, len(w))
}
