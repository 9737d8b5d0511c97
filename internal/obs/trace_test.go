package obs

import (
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// Every Trace method must be a no-op on a nil receiver — the zero-overhead
// disabled path instrumented code relies on.
func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	if id := tr.StartSpan(StageResident); id != -1 {
		t.Fatalf("nil StartSpan = %d, want -1", id)
	}
	tr.EndSpan(-1)
	tr.EndSpan(0)
	tr.SetRoute("hit")
	tr.SetExec("resident")
	tr.SetQuery("q")
	tr.SetK(10)
	tr.SetErr(errors.New("x"))
	tr.AddTA(4, true)
	tr.Finish()
	if tr.TopLevelSum() != 0 {
		t.Fatal("nil TopLevelSum != 0")
	}
	buf, err := json.Marshal(tr)
	if err != nil || string(buf) != "null" {
		t.Fatalf("nil trace marshals to %q (%v)", buf, err)
	}
}

func TestTraceSpanNesting(t *testing.T) {
	tr := NewTrace()
	a := tr.StartSpan("outer")
	b := tr.StartSpan("inner")
	tr.EndSpan(b)
	tr.EndSpan(a)
	c := tr.StartSpan("second")
	tr.EndSpan(c)
	tr.Finish()

	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	if tr.Spans[0].Depth != 0 || tr.Spans[1].Depth != 1 || tr.Spans[2].Depth != 0 {
		t.Fatalf("depths = %d,%d,%d, want 0,1,0",
			tr.Spans[0].Depth, tr.Spans[1].Depth, tr.Spans[2].Depth)
	}
	for i, s := range tr.Spans {
		if s.Dur < 0 {
			t.Fatalf("span %d has negative duration", i)
		}
	}
	if tr.Spans[1].Dur > tr.Spans[0].Dur {
		t.Fatal("inner span outlasted its parent")
	}
	// Top-level sum counts only depth-0 spans.
	if sum := tr.TopLevelSum(); sum != tr.Spans[0].Dur+tr.Spans[2].Dur {
		t.Fatalf("TopLevelSum = %v, want %v", sum, tr.Spans[0].Dur+tr.Spans[2].Dur)
	}
	if tr.Total < tr.TopLevelSum() {
		t.Fatalf("total %v < top-level sum %v", tr.Total, tr.TopLevelSum())
	}
}

// Finish must close spans left open (the defensive unwind), and EndSpan of
// an outer span closes unclosed inner spans with it.
func TestTraceUnwind(t *testing.T) {
	tr := NewTrace()
	a := tr.StartSpan("outer")
	_ = tr.StartSpan("inner-left-open")
	tr.EndSpan(a)
	if got := len(tr.open); got != 0 {
		t.Fatalf("open stack = %d after closing outer, want 0", got)
	}
	_ = tr.StartSpan("tail-left-open")
	tr.Finish()
	if got := len(tr.open); got != 0 {
		t.Fatalf("open stack = %d after Finish, want 0", got)
	}
	for i, s := range tr.Spans {
		if s.Off+s.Dur > tr.Total {
			t.Fatalf("span %d [%v +%v] extends past total %v", i, s.Off, s.Dur, tr.Total)
		}
	}
}

func TestTraceJSONShape(t *testing.T) {
	tr := NewTrace()
	tr.SetRoute("miss")
	tr.SetExec("resident")
	tr.SetQuery("fp:abcd")
	tr.SetK(25)
	sp := tr.StartSpan(StageResident)
	time.Sleep(time.Millisecond)
	tr.AddTA(3, true)
	tr.EndSpan(sp)
	tr.Finish()

	buf, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Route   string `json:"route"`
		Exec    string `json:"exec"`
		Query   string `json:"query"`
		K       int    `json:"k"`
		TotalNs int64  `json:"total_ns"`
		Spans   []struct {
			Name  string `json:"name"`
			OffNs int64  `json:"off_ns"`
			DurNs int64  `json:"dur_ns"`
			Depth int    `json:"depth"`
		} `json:"spans"`
		Counters struct {
			TARounds    int64 `json:"ta_rounds"`
			TAEarlyExit bool  `json:"ta_early_exit"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Route != "miss" || got.Exec != "resident" || got.K != 25 {
		t.Fatalf("header fields wrong: %+v", got)
	}
	if got.TotalNs < time.Millisecond.Nanoseconds() {
		t.Fatalf("total_ns = %d, want >= 1ms", got.TotalNs)
	}
	if len(got.Spans) != 1 || got.Spans[0].Name != StageResident || got.Spans[0].DurNs <= 0 {
		t.Fatalf("spans wrong: %+v", got.Spans)
	}
	if got.Counters.TARounds != 3 || !got.Counters.TAEarlyExit {
		t.Fatalf("counters wrong: %+v", got.Counters)
	}
}
