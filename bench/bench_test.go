package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// Everything here runs at the smoke scale with one-second windows and makes
// no wall-clock assertion: the tests pin determinism, the open-loop latency
// accounting and the metric contract, not speed.

var smoke = scales["smoke"]

func smokeConfig(workload string, seed int64) runConfig {
	return runConfig{workload: workload, seed: seed, seconds: 1, sc: smoke}
}

func planHash(t *testing.T, workload string, seed int64) string {
	t.Helper()
	l, err := buildLab(smoke, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(workload, l, smoke, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p.hash
}

func TestOpSequenceFollowsSeed(t *testing.T) {
	for _, w := range workloadNames {
		a, again, other := planHash(t, w, 7), planHash(t, w, 7), planHash(t, w, 8)
		if a != again {
			t.Errorf("%s: seed 7 gave op sequences %s and %s", w, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 gave the same op sequence %s", w, a)
		}
	}
}

func TestTracedCountsRepeat(t *testing.T) {
	for _, w := range []string{"hot-read", "mixed-rw"} {
		a, err := runTraced(context.Background(), smokeConfig(w, 3), "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := runTraced(context.Background(), smokeConfig(w, 3), "")
		if err != nil {
			t.Fatal(err)
		}
		if a.failed != 0 || b.failed != 0 {
			t.Fatalf("%s: %d and %d failed ops: %v %v", w, a.failed, b.failed, a.errs, b.errs)
		}
		for _, d := range perLayer {
			if d.Unit != "count" {
				continue
			}
			if a.vals[d.Name] != b.vals[d.Name] {
				t.Errorf("%s: %s read %v, then %v", w, d.Name, a.vals[d.Name], b.vals[d.Name])
			}
		}
	}
}

// An open loop charges a stall to the arrivals queued behind it: with the
// handler stalled once for 300ms and arrivals every 10ms, the arrivals that
// were due during the stall must all report the wait, not just the one
// request that hit it.
func TestOpenLoopChargesStallToLaterArrivals(t *testing.T) {
	const (
		stall    = 300 * time.Millisecond
		interval = 10 * time.Millisecond
		n        = 60
	)
	var served atomic.Int64
	s, err := serveHandler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if served.Add(1) == 1 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{kind: opQuery, at: time.Duration(i) * interval, body: []byte("{}"), sess: -1}
	}
	ledgers := make([]ledger, 1) // one connection: everything queues behind the stall
	res := &loadResult{}
	driveOpen(context.Background(), httpTarget{s}, ops, n*interval, time.Now(), ledgers, res)
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if ledgers[0].failed != 0 {
		t.Fatalf("%d requests failed: %v", ledgers[0].failed, ledgers[0].firstErr)
	}
	// Arrivals due in the first two thirds of the stall waited at least a
	// third of it.
	late := 0
	for _, lat := range ledgers[0].primary {
		if time.Duration(lat) >= stall/3 {
			late++
		}
	}
	if want := int(stall / interval * 2 / 3); late < want {
		t.Errorf("%d arrivals were charged at least %v, want at least %d", late, stall/3, want)
	}
}

func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	var want []metricDef
	for _, m := range spec.EndToEnd {
		want = append(want, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	sameDefs(t, "end_to_end", want, endToEnd)
	sameDefs(t, "per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloadNames[i])
		}
	}

	// What a run prints as its last line is exactly the table, in both modes.
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-workload", "hot-read", "-seed", "5", "-seconds", "1", "-scale", "smoke", "-trace", trace}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", trace, code, stderr.String())
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var line resultLine
		if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
			t.Fatalf("trace %s: last line: %v", trace, err)
		}
		defs := endToEnd
		if trace == "1" {
			defs = perLayer
		}
		if len(line.Metrics) != len(defs) {
			t.Errorf("trace %s: %d metrics emitted, table has %d", trace, len(line.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace %s: %s emitted as %+v (present %v), want unit %s", trace, d.Name, m, ok, d.Unit)
			}
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("trace %s: result %+v", trace, line)
		}
	}
}

func sameDefs(t *testing.T, table string, spec, code []metricDef) {
	t.Helper()
	if len(spec) != len(code) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", table, len(spec), len(code))
	}
	byName := make(map[string]metricDef, len(code))
	for _, d := range code {
		byName[d.Name] = d
	}
	for _, d := range spec {
		if got, ok := byName[d.Name]; !ok {
			t.Errorf("%s: %s is in BENCHMARK.json but never emitted", table, d.Name)
		} else if got != d {
			t.Errorf("%s: %s is %+v in BENCHMARK.json, %+v in the benchmark", table, d.Name, d, got)
		}
		delete(byName, d.Name)
	}
	for name := range byName {
		t.Errorf("%s: %s is emitted but missing from BENCHMARK.json", table, name)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.q1, s.median, s.q3)
	}
}

func TestJudge(t *testing.T) {
	tight := func(v float64) summary {
		return summary{n: 5, q1: v * 0.99, median: v, q3: v * 1.01, min: v * 0.98, max: v * 1.02}
	}
	wide := func(v float64) summary {
		return summary{n: 5, q1: v * 0.8, median: v, q3: v * 1.2, min: v * 0.7, max: v * 1.3}
	}
	for _, c := range []struct {
		name   string
		a, b   summary
		better string
		want   string
	}{
		{"within bound", tight(100), tight(104), "lower", verdictOK},
		{"past bound", tight(100), tight(120), "lower", verdictRegressed},
		{"higher is better", tight(100), tight(80), "higher", verdictRegressed},
		{"spread wider than bound", wide(100), wide(120), "lower", verdictUnresolved},
		{"wide but every run better", wide(100), tight(50), "lower", verdictOK},
	} {
		if got, _ := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
