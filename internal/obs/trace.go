package obs

import (
	"encoding/json"
	"time"
)

// EngineCounters are the per-query engine observables a traced evaluation
// accumulates: how hard the ranking algorithms worked and where they
// stopped early. All adders are nil-safe through the owning Trace.
type EngineCounters struct {
	// BlocksScanned, BlocksSkipped and RowsSeen counted a streaming scan
	// path that has been deleted. Nothing writes them; they stay, reading
	// 0, only because bench/ reads them until its metric set is re-aligned
	// (ROADMAP item 14(d)).
	BlocksScanned int64 `json:"blocks_scanned,omitempty"`
	BlocksSkipped int64 `json:"blocks_skipped,omitempty"`
	RowsSeen      int64 `json:"rows_seen,omitempty"`
	// TARounds is the sorted-access depth the TA loop reached; TAEarlyExit
	// reports the threshold rule halted before list exhaustion.
	TARounds    int64 `json:"ta_rounds,omitempty"`
	TAEarlyExit bool  `json:"ta_early_exit,omitempty"`
}

// Span is one timed stage of a trace. Off is the offset from the trace
// start; Depth is the nesting level at the time the span opened (0 = top
// level), so a reader can reconstruct the stage tree and TopLevelSum can
// avoid double-counting nested spans.
type Span struct {
	Name  string        `json:"name"`
	Off   time.Duration `json:"off_ns"`
	Dur   time.Duration `json:"dur_ns"`
	Depth int           `json:"depth"`
}

// Trace is one query's execution record: the route the serving tier chose,
// the stage spans, and the engine counters. A nil *Trace is the disabled
// state — every method checks the receiver first, so instrumented code
// threads the pointer unconditionally and pays one branch when tracing is
// off.
//
// A Trace is single-goroutine state: the single-flight leader's evaluation
// writes into the initiating caller's trace on the leader's goroutine, which
// is the same goroutine by construction (waiters' closures never run).
type Trace struct {
	begun time.Time

	// Route is the serving outcome (hit / miss / shared / bypass); Exec is
	// the execution path that ranked a miss or bypass. The engine sets one
	// value, resident (topk.RankResident); it stays empty on a hit or a
	// shared wait.
	Route string
	Exec  string
	Query string
	K     int
	Err   string

	// Total is the end-to-end duration, set by Finish.
	Total time.Duration

	Spans []Span
	Eng   EngineCounters

	open []int32 // span stack: indexes into Spans
}

// NewTrace starts a trace. The clock re-anchors at the first StartSpan, so
// Total measures the traced call itself — scheduling delay between creating
// the trace and entering the instrumented code never counts.
func NewTrace() *Trace {
	return &Trace{begun: time.Now()}
}

// StartSpan opens a named stage and returns its handle (-1 when tracing is
// disabled). Spans may nest; close them LIFO with EndSpan. The first span
// re-anchors the trace clock (see NewTrace).
func (t *Trace) StartSpan(name string) int {
	if t == nil {
		return -1
	}
	i := len(t.Spans)
	var off time.Duration
	if i == 0 {
		t.begun = time.Now()
	} else {
		off = time.Since(t.begun)
	}
	t.Spans = append(t.Spans, Span{Name: name, Off: off, Depth: len(t.open)})
	t.open = append(t.open, int32(i))
	return i
}

// EndSpan closes the span opened by StartSpan. Closing out of order closes
// every span opened after it too (a defensive unwind, not an error).
func (t *Trace) EndSpan(id int) {
	if t == nil || id < 0 || id >= len(t.Spans) {
		return
	}
	now := time.Since(t.begun)
	for len(t.open) > 0 {
		top := int(t.open[len(t.open)-1])
		t.open = t.open[:len(t.open)-1]
		t.Spans[top].Dur = now - t.Spans[top].Off
		if top == id {
			return
		}
	}
}

// Transition closes span id and opens a successor with one shared clock
// reading, so consecutive stages tile with zero gap between them — the
// discipline that keeps TopLevelSum within a few clock reads of Total even
// on microsecond-scale requests. Like EndSpan it unwinds LIFO through
// anything opened after id. Returns the new span's handle (-1 when tracing
// is disabled).
func (t *Trace) Transition(id int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.begun)
	if id >= 0 && id < len(t.Spans) {
		for len(t.open) > 0 {
			top := int(t.open[len(t.open)-1])
			t.open = t.open[:len(t.open)-1]
			t.Spans[top].Dur = now - t.Spans[top].Off
			if top == id {
				break
			}
		}
	}
	i := len(t.Spans)
	t.Spans = append(t.Spans, Span{Name: name, Off: now, Depth: len(t.open)})
	t.open = append(t.open, int32(i))
	return i
}

// SetRoute records the serving outcome.
func (t *Trace) SetRoute(route string) {
	if t != nil {
		t.Route = route
	}
}

// SetExec records the execution path the router chose.
func (t *Trace) SetExec(exec string) {
	if t != nil {
		t.Exec = exec
	}
}

// SetQuery records a human-readable query identity (the profile
// fingerprint). Callers should format the string only when t != nil.
func (t *Trace) SetQuery(q string) {
	if t != nil {
		t.Query = q
	}
}

// SetK records the requested answer size.
func (t *Trace) SetK(k int) {
	if t != nil {
		t.K = k
	}
}

// SetErr records a failed evaluation.
func (t *Trace) SetErr(err error) {
	if t != nil && err != nil {
		t.Err = err.Error()
	}
}

// AddTA accumulates TA loop depth and the early-exit verdict.
func (t *Trace) AddTA(rounds int64, earlyExit bool) {
	if t != nil {
		t.Eng.TARounds += rounds
		t.Eng.TAEarlyExit = t.Eng.TAEarlyExit || earlyExit
	}
}

// Finish closes any still-open spans and stamps the total duration.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	now := time.Since(t.begun)
	for len(t.open) > 0 {
		top := int(t.open[len(t.open)-1])
		t.open = t.open[:len(t.open)-1]
		t.Spans[top].Dur = now - t.Spans[top].Off
	}
	t.Total = now
}

// TopLevelSum is the summed duration of depth-0 spans — the coverage figure
// compared against Total: nested spans re-measure time their parents
// already carry, so only the top level tiles the query.
func (t *Trace) TopLevelSum() time.Duration {
	if t == nil {
		return 0
	}
	var sum time.Duration
	for _, s := range t.Spans {
		if s.Depth == 0 {
			sum += s.Dur
		}
	}
	return sum
}

// traceJSON is the wire shape of a trace.
type traceJSON struct {
	Route    string         `json:"route"`
	Exec     string         `json:"exec,omitempty"`
	Query    string         `json:"query,omitempty"`
	K        int            `json:"k"`
	TotalNs  int64          `json:"total_ns"`
	Err      string         `json:"err,omitempty"`
	Spans    []Span         `json:"spans"`
	Counters EngineCounters `json:"counters"`
}

// MarshalJSON renders the trace for the slow log and /debug/trace.
func (t *Trace) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	return json.Marshal(traceJSON{
		Route:    t.Route,
		Exec:     t.Exec,
		Query:    t.Query,
		K:        t.K,
		TotalNs:  t.Total.Nanoseconds(),
		Err:      t.Err,
		Spans:    t.Spans,
		Counters: t.Eng,
	})
}
