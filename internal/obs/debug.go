package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// TraceRunner runs one query with tracing forced on and returns its trace —
// the EXPLAIN ANALYZE hook behind /debug/trace. The query string is
// surface-specific (internal/serve resolves it as a stored session id).
type TraceRunner func(query string, k int) (*Trace, error)

// DebugOptions wires the debug HTTP surface. Nil fields disable the
// corresponding endpoint (it answers 404 with an explanatory body).
type DebugOptions struct {
	Registry *Registry
	SlowLog  *SlowLog
	Trace    TraceRunner
}

// NewDebugMux builds the ops endpoint set:
//
//	/metrics         text exposition of the registry
//	/debug/slowlog   JSON array of retained slow-query entries
//	/debug/trace     run one query traced (?query=...&k=N), return the JSON trace
//	/debug/pprof/*   the standard runtime profiles
func NewDebugMux(opts DebugOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Registry == nil {
			http.Error(w, "no registry attached", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = opts.Registry.WriteText(w)
	})
	mux.HandleFunc("/debug/slowlog", func(w http.ResponseWriter, _ *http.Request) {
		if opts.SlowLog == nil {
			http.Error(w, "no slow log attached", http.StatusNotFound)
			return
		}
		writeJSON(w, struct {
			Threshold int64       `json:"threshold_ns"`
			Logged    uint64      `json:"total_logged"`
			Entries   []SlowEntry `json:"entries"`
		}{opts.SlowLog.Threshold().Nanoseconds(), opts.SlowLog.TotalLogged(), opts.SlowLog.Snapshot()})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if opts.Trace == nil {
			http.Error(w, "no trace runner attached", http.StatusNotFound)
			return
		}
		k := 10
		if s := r.URL.Query().Get("k"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				http.Error(w, "bad k", http.StatusBadRequest)
				return
			}
			k = v
		}
		tr, err := opts.Trace(r.URL.Query().Get("query"), k)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, tr)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
