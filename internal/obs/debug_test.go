package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestDebugEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("serve_hit").Record(1500)
	reg.Counter("demo_total").Add(3)
	reg.RegisterGroup("cache", func() map[string]int64 {
		return map[string]int64{"hits": 42}
	})
	slow := NewSlowLog(0, 4)
	slow.Observe("miss", "q1", 10, 5*time.Millisecond, nil)

	mux := NewDebugMux(DebugOptions{
		Registry: reg,
		SlowLog:  slow,
		Trace: func(query string, k int) (*Trace, error) {
			if query == "boom" {
				return nil, fmt.Errorf("no such query")
			}
			tr := NewTrace()
			tr.SetRoute("miss")
			tr.SetQuery(query)
			tr.SetK(k)
			sp := tr.StartSpan(StageResident)
			tr.AddTA(4, false)
			tr.EndSpan(sp)
			tr.Finish()
			return tr, nil
		},
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`hypre_hist_count{name="serve_hit"} 1`,
		`hypre_hist_p50_ns{name="serve_hit"}`,
		`hypre_counter{name="demo_total"} 3`,
		`hypre_group{name="cache",field="hits"} 42`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	code, body = get("/debug/slowlog")
	if code != 200 {
		t.Fatalf("/debug/slowlog status %d", code)
	}
	var sl struct {
		Logged  uint64      `json:"total_logged"`
		Entries []SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &sl); err != nil {
		t.Fatalf("slowlog not JSON: %v\n%s", err, body)
	}
	if sl.Logged != 1 || len(sl.Entries) != 1 || sl.Entries[0].Query != "q1" {
		t.Fatalf("slowlog shape wrong: %+v", sl)
	}

	code, body = get("/debug/trace?query=u7&k=25")
	if code != 200 {
		t.Fatalf("/debug/trace status %d: %s", code, body)
	}
	var tj struct {
		Route string `json:"route"`
		Query string `json:"query"`
		K     int    `json:"k"`
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
		Counters struct {
			TARounds int64 `json:"ta_rounds"`
		} `json:"counters"`
	}
	if err := json.Unmarshal([]byte(body), &tj); err != nil {
		t.Fatalf("trace not JSON: %v\n%s", err, body)
	}
	if tj.Route != "miss" || tj.Query != "u7" || tj.K != 25 ||
		len(tj.Spans) != 1 || tj.Spans[0].Name != StageResident ||
		tj.Counters.TARounds != 4 {
		t.Fatalf("trace shape wrong: %s", body)
	}

	if code, _ := get("/debug/trace?query=boom"); code != 400 {
		t.Fatalf("failing trace runner: status %d, want 400", code)
	}
	if code, _ := get("/debug/trace?query=x&k=zero"); code != 400 {
		t.Fatalf("bad k: status %d, want 400", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestDebugEndpointsDetached(t *testing.T) {
	srv := httptest.NewServer(NewDebugMux(DebugOptions{}))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/slowlog", "/debug/trace"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 404 {
			t.Fatalf("%s status %d, want 404", path, resp.StatusCode)
		}
	}
}
