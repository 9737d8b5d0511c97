package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from path, or from the working directory or
// its parent (the binary runs from the repository root, the tests from
// bench/).
func loadSpec(path string) (*benchSpec, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	var b []byte
	var err error
	for _, c := range candidates {
		if b, err = os.ReadFile(c); err == nil || !errors.Is(err, fs.ErrNotExist) {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// loadRecords reads the untraced records of a -json file, by workload.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]record)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace == 0 {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

// summary is the median and quartiles of one metric over the runs of one
// side. spread is (q3-q1)/median, 0 below two runs.
type summary struct {
	n              int
	q1, median, q3 float64
	min, max       float64
}

func (s summary) spread() float64 {
	if s.n < 2 || s.median == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.median
}

// summarize computes the quartiles the way Python's statistics.quantiles
// (n=4, exclusive) does, which is how the acceptance procedure measures
// spread.
func summarize(vals []float64) summary {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	n := len(v)
	s := summary{n: n}
	if n == 0 {
		return s
	}
	s.min, s.max = v[0], v[n-1]
	if n == 1 {
		s.q1, s.median, s.q3 = v[0], v[0], v[0]
		return s
	}
	q := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	s.q1, s.median, s.q3 = q(1), q(2), q(3)
	return s
}

func valuesOf(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

const (
	verdictOK         = "ok"
	verdictUnresolved = "unresolved"
	verdictRegressed  = "regressed"
)

// judge applies one metric's bound to the two sides: regressed when B's
// median is worse than A's by more than the bound; unresolved when the
// run-to-run spread of either side is wider than the bound, unless every run
// of B reads better than every run of A.
func judge(a, b summary, better string, bound float64) (verdict string, worse float64) {
	if a.median != 0 {
		worse = (b.median - a.median) / a.median
		if better == "higher" {
			worse = -worse
		}
	}
	if max(a.spread(), b.spread()) > bound {
		allBetter := b.max < a.min
		if better == "higher" {
			allBetter = b.min > a.max
		}
		if allBetter {
			return verdictOK, worse
		}
		return verdictUnresolved, worse
	}
	if worse > bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// compareFiles prints, per workload, the verdict of every end-to-end metric
// of B against A under BENCHMARK.json's bounds, and reports whether any
// regressed.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	recsA, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	recsB, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	rank := map[string]int{verdictOK: 0, verdictUnresolved: 1, verdictRegressed: 2}
	anyRegressed := false
	for _, wl := range spec.Workloads {
		a, b := recsA[wl.Name], recsB[wl.Name]
		if len(a) == 0 || len(b) == 0 {
			fmt.Fprintf(w, "%-12s missing (A has %d runs, B has %d)\n", wl.Name, len(a), len(b))
			continue
		}
		worst := verdictOK
		var lines []string
		for _, m := range spec.EndToEnd {
			sa, sb := summarize(valuesOf(a, m.Name)), summarize(valuesOf(b, m.Name))
			verdict, worse := judge(sa, sb, m.Better, m.Bound)
			if rank[verdict] > rank[worst] {
				worst = verdict
			}
			lines = append(lines, fmt.Sprintf("  %-18s A %14.4f (n=%d, spread %5.1f%%)  B %14.4f (n=%d, spread %5.1f%%)  worse by %+6.1f%%  bound %4.1f%%  %s",
				m.Name, sa.median, sa.n, 100*sa.spread(), sb.median, sb.n, 100*sb.spread(), 100*worse, 100*m.Bound, verdict))
		}
		fmt.Fprintf(w, "%-12s %s\n%s\n", wl.Name, worst, strings.Join(lines, "\n"))
		anyRegressed = anyRegressed || worst == verdictRegressed
	}
	return anyRegressed, nil
}

// repeat runs the same invocation n times, each in a child process of its
// own (so no run inherits another's heap), and prints each metric's median,
// quartiles and spread.
func repeat(stdout, stderr io.Writer, n int, args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	vals := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < n; i++ {
		var buf bytes.Buffer
		// A later flag overrides an earlier one: the child runs once.
		cmd := exec.Command(self, append(append([]string(nil), args...), "-runs", "1")...)
		cmd.Stdout = &buf
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d: %w", i+1, err)
		}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		var line resultLine
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			return fmt.Errorf("run %d: last line is not a result: %w", i+1, err)
		}
		for name, m := range line.Metrics {
			vals[name] = append(vals[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Fprintf(stdout, "run %d/%d: correct=%v attempted=%d failed=%d\n", i+1, n, line.Correct, line.Attempted, line.Failed)
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-34s %14s %14s %14s %8s\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range names {
		s := summarize(vals[name])
		fmt.Fprintf(stdout, "%-34s %14.4f %14.4f %14.4f %7.1f%% %s\n", name, s.q1, s.median, s.q3, 100*s.spread(), units[name])
	}
	return nil
}
