package serve_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"hypre/internal/hypre"
)

// BenchmarkHandleQueryHit is one warm session query through App.Handler():
// admission, request decode, the cache hit and the response encode, as a
// hot-read request runs them minus the network.
func BenchmarkHandleQueryHit(b *testing.B) {
	app, net := newApp(b, nil)
	var prefs []hypre.ScoredPred
	for i := 0; i < 6; i++ {
		prefs = append(prefs, mustPref(b, fmt.Sprintf("dblp.venue=%q", net.Venues[i]), 0.1+0.1*float64(i)))
	}
	prefs = append(prefs, mustPref(b, fmt.Sprintf("dblp.year=%d", net.Cfg.MinYear+2), 0.35))
	if _, err := app.SeedSession("bench", prefs); err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"session":"bench","k":10}`)
	h := app.Handler()
	query := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
		if w.Code != 200 {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		return w
	}
	query() // the miss that warms the entry
	b.ReportAllocs()
	b.ResetTimer()
	var w *httptest.ResponseRecorder
	for i := 0; i < b.N; i++ {
		w = query()
	}
	b.StopTimer()
	if !strings.Contains(w.Body.String(), `"outcome":"hit"`) {
		b.Fatalf("not a hit: %s", w.Body.String())
	}
}
