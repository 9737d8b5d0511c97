package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one metric of the benchmark. The two tables below are the
// single source of the metric set: the untraced run emits exactly endToEnd,
// the traced run exactly perLayer, and BENCHMARK.json lists the same names
// (bench_test.go holds the two together).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the served system sees. Every one is
// defined, never zero, and steady on all four workloads — which is why the
// mutate ack latencies (mixed-rw only), the error rate (zero on a healthy
// run) and the p99 (fewer than ten samples beyond it on mixed-rw and
// peps-direct) are reported under driver.* instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p95_us", "us", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"live_heap_mb", "mb", "lower"},
}

// perLayer are the single-layer metrics of the traced run, named
// <package>.<what>. A metric whose layer does no work on a workload reads 0
// there.
var perLayer = []metricDef{
	{"serve.request_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.request_bytes", "bytes", "lower"},
	{"serve.response_bytes", "bytes", "lower"},
	{"serve.status_2xx", "count", "higher"},
	{"serve.status_other", "count", "lower"},

	{"admit.admit_ns", "ns", "lower"},
	{"admit.admitted", "count", "higher"},
	{"admit.queued", "count", "lower"},
	{"admit.shed", "count", "lower"},
	{"admit.canceled", "count", "lower"},

	{"predicate.parse_us", "us", "lower"},

	{"combine.canonicalize_us", "us", "lower"},
	{"combine.materialize_us", "us", "lower"},
	{"combine.pair_build_us", "us", "lower"},
	{"combine.peps_us", "us", "lower"},
	{"combine.peps_anchors", "count", "lower"},
	{"combine.pair_entries", "count", "lower"},
	{"combine.evaluator_bytes", "bytes", "lower"},

	{"cache.topk_hit_us", "us", "lower"},
	{"cache.topk_miss_us", "us", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.shared_waits", "count", "lower"},
	{"cache.plan_hits", "count", "higher"},
	{"cache.evaluations", "count", "lower"},
	{"cache.evictions", "count", "lower"},
	{"cache.invalidated", "count", "lower"},
	{"cache.stale_bypasses", "count", "lower"},
	{"cache.footprint_scans", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.entries", "count", "lower"},
	{"cache.bytes", "bytes", "lower"},

	{"topk.stream_us", "us", "lower"},
	{"topk.build_lists_us", "us", "lower"},
	{"topk.ta_us", "us", "lower"},
	{"topk.ta_rounds", "count", "lower"},
	{"topk.early_exit_ratio", "ratio", "higher"},
	{"topk.exec_streaming", "count", "lower"},
	{"topk.exec_ta_cached", "count", "higher"},
	{"topk.exec_plan_hit", "count", "higher"},
	{"topk.exec_materialized_fallback", "count", "lower"},

	{"relstore.blocks_scanned", "count", "lower"},
	{"relstore.blocks_skipped", "count", "higher"},
	{"relstore.rows_seen", "count", "lower"},
	{"relstore.rows_per_result", "ratio", "lower"},
	{"relstore.commit_us", "us", "lower"},
	{"relstore.compactions", "count", "lower"},
	{"relstore.table_bytes", "bytes", "lower"},
	{"relstore.bytes_per_row", "bytes", "lower"},

	{"bitset.andcard_ns", "ns", "lower"},
	{"bitset.bytes_per_pred", "bytes", "lower"},

	{"delta.sync_us", "us", "lower"},
	{"delta.touched_rows", "count", "lower"},
	{"delta.changed_preds", "count", "lower"},
	{"delta.full_rebuilds", "count", "lower"},

	{"workload.generate_s", "s", "lower"},
	{"workload.extract_s", "s", "lower"},
	{"hypre.graph_build_s", "s", "lower"},

	{"obs.trace_overhead_pct", "%", "lower"},

	{"driver.latency_p99_us", "us", "lower"},
	{"driver.mutate_p50_us", "us", "lower"},
	{"driver.mutate_p95_us", "us", "lower"},
	{"driver.error_rate", "ratio", "lower"},
	{"driver.machine_speed", "ratio", "higher"},
	{"driver.sched_lag_p99_us", "us", "lower"},
	{"driver.backlog_end", "count", "lower"},
	{"driver.gc_pause_ms", "ms", "lower"},
	{"driver.peak_rss_mb", "mb", "lower"},
	{"driver.nproc", "count", "higher"},
	{"driver.gomaxprocs", "count", "higher"},
}

// metricValue is the wire form of one measured value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last stdout line: exactly these four keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// stamp identifies the machine and code a record was measured on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Scale      string `json:"scale"`
}

// record is one run as -json appends it: the stamp, the contract's result,
// and the values the contract's last line has no room for (sample counts,
// the metrics of the other table that the run happened to measure).
type record struct {
	Stamp    stamp   `json:"stamp"`
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	OpsHash  string  `json:"ops_hash"`
	resultLine
	Samples map[string]int     `json:"samples"`
	Extra   map[string]float64 `json:"extra,omitempty"`
}

func newStamp(seed int64, scale, commit string) stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit,
		Seed:       seed,
		Scale:      scale,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// the file or the field does not exist).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// pick selects the values of one metric table, with units; a name the run
// did not measure is an error, so a table and the code cannot drift apart.
func pick(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printMetrics writes every measured value by name with its unit and, where
// the value is a statistic over samples, the sample count.
func printMetrics(w io.Writer, vals map[string]float64, samples map[string]int) {
	units := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(vals))
	for name := range vals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("%-34s %16.4f %s", name, vals[name], units[name])
		if n, ok := samples[name]; ok {
			line += fmt.Sprintf("  n=%d", n)
		}
		fmt.Fprintln(w, line)
	}
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
