package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypre/internal/admit"
	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/serve"
	"hypre/internal/workload"
)

func testNet(t testing.TB, seed int64) *workload.Network {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.NumPapers = 500
	cfg.NumAuthors = 120
	cfg.NumVenues = 10
	net, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func newApp(t testing.TB, mutate func(*serve.Options)) (*serve.App, *workload.Network) {
	t.Helper()
	net := testNet(t, 17)
	opts := serve.Options{Net: net}
	if mutate != nil {
		mutate(&opts)
	}
	app, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return app, net
}

// do issues one request against the app's handler and decodes the JSON body.
func do(t testing.TB, app *serve.App, method, path, body string) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body != "" {
		rd = bytes.NewReader([]byte(body))
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	app.Handler().ServeHTTP(w, req)
	var out map[string]any
	if w.Body.Len() > 0 && strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: bad JSON body %q: %v", method, path, w.Body.String(), err)
		}
	}
	return w.Code, out
}

// profileBody marshals a two-pref profile body; predicates embed quoted
// venue names, so the JSON is built by the encoder, never by hand.
func profileBody(net *workload.Network, k int) string {
	type wire struct {
		Profile []serve.ProfileEntry `json:"profile"`
		K       int                  `json:"k,omitempty"`
	}
	b, err := json.Marshal(wire{
		Profile: []serve.ProfileEntry{
			{Pred: fmt.Sprintf("dblp.venue=%q", net.Venues[0]), Intensity: 0.4},
			{Pred: fmt.Sprintf("dblp.year=%d", net.Cfg.MinYear+1), Intensity: 0.3},
		},
		K: k,
	})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// malformedCase is one request the server must reject with status want.
type malformedCase struct {
	name, method, path, body string
	want                     int
}

// malformedCases are TestMalformedRequests' rejections, for an app with
// MaxProfilePrefs 4 and MaxK 50; FuzzQueryRequest seeds from their bodies.
func malformedCases(net *workload.Network) []malformedCase {
	bigProfile := `{"k":3,"profile":[` + strings.Repeat(`{"pred":"dblp.year=2000","intensity":0.1},`, 5)
	bigProfile = strings.TrimSuffix(bigProfile, ",") + `]}`
	return []malformedCase{
		{"bad json", "POST", "/v1/query", `{"k": nope}`, http.StatusBadRequest},
		{"unknown field", "POST", "/v1/query", `{"kk":3}`, http.StatusBadRequest},
		{"k missing", "POST", "/v1/query", `{"profile":[{"pred":"dblp.year=2000","intensity":0.1}]}`, http.StatusBadRequest},
		{"k zero", "POST", "/v1/query", strings.Replace(profileBody(net, 3), `"k":3`, `"k":0`, 1), http.StatusBadRequest},
		{"k negative", "POST", "/v1/query", strings.Replace(profileBody(net, 3), `"k":3`, `"k":-2`, 1), http.StatusBadRequest},
		{"k above cap", "POST", "/v1/query", strings.Replace(profileBody(net, 3), `"k":3`, `"k":51`, 1), http.StatusBadRequest},
		{"no profile no session", "POST", "/v1/query", `{"k":3}`, http.StatusBadRequest},
		{"both profile and session", "POST", "/v1/query",
			strings.Replace(profileBody(net, 3), `{"profile"`, `{"session":"s1","profile"`, 1), http.StatusBadRequest},
		{"unknown session", "POST", "/v1/query", `{"session":"ghost","k":3}`, http.StatusNotFound},
		{"bad predicate", "POST", "/v1/query", `{"k":3,"profile":[{"pred":"dblp.venue ~~ x","intensity":0.2}]}`, http.StatusBadRequest},
		{"oversized profile", "POST", "/v1/query", bigProfile, http.StatusRequestEntityTooLarge},
		{"empty canonical profile put", "PUT", "/v1/session/s1/profile", `{"profile":[]}`, http.StatusBadRequest},
		{"get unknown session", "GET", "/v1/session/ghost/profile", "", http.StatusNotFound},
		{"mutate no ops", "POST", "/v1/mutate", `{"ops":[]}`, http.StatusBadRequest},
		{"mutate unknown kind", "POST", "/v1/mutate", `{"ops":[{"kind":"explode","pid":1}]}`, http.StatusBadRequest},
		{"mutate bad json", "POST", "/v1/mutate", `{"ops":`, http.StatusBadRequest},
		// A well-formed delete ahead of the malformed op: rejection must
		// leave it unapplied too.
		{"mutate link_add without authors", "POST", "/v1/mutate",
			`{"ops":[{"kind":"delete","pid":1},{"kind":"link_add","pid":5}]}`, http.StatusBadRequest},
		{"mutate insert without venue", "POST", "/v1/mutate",
			`{"ops":[{"kind":"insert","pid":900001,"year":2001,"authors":[1]}]}`, http.StatusBadRequest},
		{"mutate op without kind", "POST", "/v1/mutate", `{"ops":[{"pid":900002,"venue":"V"}]}`, http.StatusBadRequest},
	}
}

// TestMalformedRequests: every rejected request answers its documented
// status and leaves the cache untouched — rejections must not pollute the
// shared serving state.
func TestMalformedRequests(t *testing.T) {
	app, net := newApp(t, func(o *serve.Options) { o.MaxProfilePrefs = 4; o.MaxK = 50 })
	cases := malformedCases(net)
	stamp := net.DB.EpochStamp("dblp", "dblp_author")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := do(t, app, c.method, c.path, c.body)
			if code != c.want {
				t.Fatalf("%s %s: status %d (body %v), want %d", c.method, c.path, code, body, c.want)
			}
			if body["error"] == "" {
				t.Fatalf("%s %s: rejection carries no error message", c.method, c.path)
			}
		})
	}
	if entries, _ := app.Server().Cache().Stats(); entries != 0 {
		t.Fatalf("rejected requests cached %d entries", entries)
	}
	if m := app.Server().Counters().Snapshot().Misses; m != 0 {
		t.Fatalf("rejected requests reached the evaluator: %d misses", m)
	}
	if now := net.DB.EpochStamp("dblp", "dblp_author"); now != stamp {
		t.Fatalf("rejected requests committed to the store: epoch stamp %d -> %d", stamp, now)
	}

	// The mutate route must still be open after the rejections (a rejected
	// op once panicked under the route's lock and wedged it), and the served
	// answer must still be the from-scratch one.
	code, m := do(t, app, "POST", "/v1/mutate", `{"ops":[{"kind":"link_add","pid":5,"authors":[3]}]}`)
	if code != http.StatusOK || m["applied"].(float64) != 1 {
		t.Fatalf("well-formed mutate after rejections: %d %v", code, m)
	}
	code, q := do(t, app, "POST", "/v1/query", profileBody(net, 5))
	if code != http.StatusOK {
		t.Fatalf("query after mutate: %d %v", code, q)
	}
	fresh, err := app.Uncached([]hypre.ScoredPred{
		mustPref(t, fmt.Sprintf("dblp.venue=%q", net.Venues[0]), 0.4),
		mustPref(t, fmt.Sprintf("dblp.year=%d", net.Cfg.MinYear+1), 0.3),
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertServedEquals(t, q["results"].([]any), fresh)
}

func mustPref(t testing.TB, pred string, intensity float64) hypre.ScoredPred {
	t.Helper()
	sp, err := hypre.NewScoredPred(pred, intensity)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// assertServedEquals compares a decoded "results" array with a reference
// ranking, row by row.
func assertServedEquals(t testing.TB, served []any, want []combine.ScoredTuple) {
	t.Helper()
	if len(want) != len(served) {
		t.Fatalf("served %d rows, uncached %d", len(served), len(want))
	}
	for i, r := range served {
		row := r.(map[string]any)
		if int64(row["pid"].(float64)) != want[i].PID || row["score"].(float64) != want[i].Intensity {
			t.Fatalf("row %d: served %v, uncached %+v", i, row, want[i])
		}
	}
}

// TestSessionRoundTripAndSharedCache: PUT round-trips through GET, a session
// query and an inline query of the same profile share one fingerprint and
// one cache entry, and answers are identical.
func TestSessionRoundTripAndSharedCache(t *testing.T) {
	app, net := newApp(t, nil)
	code, put := do(t, app, "PUT", "/v1/session/alice/profile", profileBody(net, 0))
	if code != http.StatusOK {
		t.Fatalf("PUT profile: %d %v", code, put)
	}
	code, got := do(t, app, "GET", "/v1/session/alice/profile", "")
	if code != http.StatusOK {
		t.Fatalf("GET profile: %d", code)
	}
	if got["fingerprint"] != put["fingerprint"] || got["fingerprint"] == "" {
		t.Fatalf("fingerprint did not round-trip: put %v get %v", put["fingerprint"], got["fingerprint"])
	}
	// Re-PUT the GET body under another session: the canonical profile (and
	// so the fingerprint) must survive the round trip — this is what lets
	// the CI smoke replay a seeded profile.
	prof, _ := json.Marshal(map[string]any{"profile": got["profile"]})
	code, put2 := do(t, app, "PUT", "/v1/session/bob/profile", string(prof))
	if code != http.StatusOK || put2["fingerprint"] != put["fingerprint"] {
		t.Fatalf("re-PUT of round-tripped profile: %d fp %v want %v", code, put2["fingerprint"], put["fingerprint"])
	}

	code, q1 := do(t, app, "POST", "/v1/query", `{"session":"alice","k":5}`)
	if code != http.StatusOK || q1["outcome"] != "miss" {
		t.Fatalf("first session query: %d %v", code, q1)
	}
	code, q2 := do(t, app, "POST", "/v1/query", profileBody(net, 5))
	if code != http.StatusOK || q2["outcome"] != "hit" {
		t.Fatalf("inline query of same profile: %d outcome %v, want hit", code, q2["outcome"])
	}
	if fmt.Sprint(q1["results"]) != fmt.Sprint(q2["results"]) {
		t.Fatalf("session and inline answers diverge:\n%v\n%v", q1["results"], q2["results"])
	}
	if q1["fingerprint"] != q2["fingerprint"] {
		t.Fatalf("fingerprints diverge: %v vs %v", q1["fingerprint"], q2["fingerprint"])
	}
	if len(q1["results"].([]any)) == 0 {
		t.Fatal("query returned no results")
	}
}

// TestMutateInvalidatesAndMatchesUncached: a delete of a ranked pid shows up
// in the next query (no stale answer), and the served answer equals a fresh
// uncached evaluation.
func TestMutateInvalidatesAndMatchesUncached(t *testing.T) {
	app, net := newApp(t, nil)
	if code, _ := do(t, app, "PUT", "/v1/session/u/profile", profileBody(net, 0)); code != 200 {
		t.Fatal("PUT failed")
	}
	code, q1 := do(t, app, "POST", "/v1/query", `{"session":"u","k":5}`)
	if code != 200 {
		t.Fatalf("query: %d", code)
	}
	results := q1["results"].([]any)
	if len(results) == 0 {
		t.Fatal("no results to delete")
	}
	victim := int64(results[0].(map[string]any)["pid"].(float64))

	code, m := do(t, app, "POST", "/v1/mutate", fmt.Sprintf(`{"ops":[{"kind":"delete","pid":%d}]}`, victim))
	if code != 200 || m["applied"].(float64) != 1 {
		t.Fatalf("mutate: %d %v", code, m)
	}
	code, q2 := do(t, app, "POST", "/v1/query", `{"session":"u","k":5}`)
	if code != 200 {
		t.Fatalf("re-query: %d", code)
	}
	for _, r := range q2["results"].([]any) {
		if int64(r.(map[string]any)["pid"].(float64)) == victim {
			t.Fatalf("deleted pid %d still ranked: %v", victim, q2["results"])
		}
	}
	// The mutate response promises the sync already ran: the re-query must
	// have been served from the repaired cache, not a stale bypass.
	if sb := app.Server().Counters().Snapshot().StaleBypasses; sb != 0 {
		t.Fatalf("re-query after mutate took %d stale bypasses, want 0", sb)
	}
	// And it matches a from-scratch evaluation exactly.
	code, prof := do(t, app, "GET", "/v1/session/u/profile", "")
	if code != 200 {
		t.Fatal("GET profile")
	}
	var entries []serve.ProfileEntry
	b, _ := json.Marshal(prof["profile"])
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	prefs := make([]hypre.ScoredPred, len(entries))
	for i, e := range entries {
		prefs[i] = mustPref(t, e.Pred, e.Intensity)
	}
	fresh, err := app.Uncached(prefs, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertServedEquals(t, q2["results"].([]any), fresh)
}

// TestQueryAdmissionSheds: with a tight query gate, a burst past the bucket
// answers 429 with a Retry-After hint while earlier arrivals succeed, and
// the mutate class is unaffected; then the same contract under a concurrent
// burst over real HTTP, checked against the gate's own ledger.
func TestQueryAdmissionSheds(t *testing.T) {
	app, net := newApp(t, func(o *serve.Options) {
		o.Query = admit.Config{Rate: 1, Burst: 2, MaxQueue: 1, SLO: time.Millisecond}
	})
	body := profileBody(net, 3)
	var ok, shed int
	for i := 0; i < 6; i++ {
		req := httptest.NewRequest("POST", "/v1/query", bytes.NewReader([]byte(body)))
		w := httptest.NewRecorder()
		app.Handler().ServeHTTP(w, req)
		switch w.Code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if w.Header().Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("unexpected status %d: %s", w.Code, w.Body.String())
		}
	}
	if ok < 2 || shed == 0 {
		t.Fatalf("ok %d shed %d, want >=2 admitted and >0 shed", ok, shed)
	}
	snap := app.QueryGate().Counters().Snapshot()
	if snap.Shed == 0 {
		t.Fatalf("gate ledger missed the sheds: %+v", snap)
	}
	// Mutate rides its own unlimited gate.
	pid := net.Papers[0].PID
	if code, _ := do(t, app, "POST", "/v1/mutate",
		fmt.Sprintf(`{"ops":[{"kind":"update_year","pid":%d,"year":2001}]}`, pid)); code != 200 {
		t.Fatalf("mutate sharing the query gate? status %d", code)
	}

	// Concurrent burst over real HTTP against a gate that admits a fraction
	// of it: only 200/429 occur, every 429 carries Retry-After, and the
	// gate's ledger balances against what the clients saw.
	const issued = 256
	slo := 100 * time.Millisecond
	burstApp, _ := newApp(t, func(o *serve.Options) {
		o.Query = admit.Config{Rate: 20, Burst: 4, MaxQueue: 16, SLO: slo}
	})
	srv := httptest.NewServer(burstApp.Handler())
	defer srv.Close()
	var okN, shedN atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < issued; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				okN.Add(1)
			case http.StatusTooManyRequests:
				shedN.Add(1)
				if resp.Header.Get("Retry-After") == "" {
					t.Error("burst: 429 without Retry-After")
				}
			default:
				t.Errorf("burst: unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	bok, bshed := okN.Load(), shedN.Load()
	if bok+bshed != issued || bshed == 0 {
		t.Fatalf("burst: ok %d + shed %d, want %d issued with >0 shed", bok, bshed, issued)
	}
	led := burstApp.QueryGate().Counters().Snapshot()
	if led.Admitted+led.Queued != bok || led.Shed != bshed || led.Canceled != 0 {
		t.Fatalf("burst: gate ledger %+v disagrees with clients (ok %d, shed %d)", led, bok, bshed)
	}
	// Queue delay is bounded by construction: the gate records the wait it
	// reserved, never above the SLO, so the histogram p99 can exceed the SLO
	// by at most one 1/16-octave bucket.
	qsnap := burstApp.Registry().Histogram("admit_queue_query").Snapshot()
	if p99 := time.Duration(qsnap.Quantile(0.99)); p99 > slo+slo/16 {
		t.Fatalf("burst: admit_queue_query p99 %v exceeds SLO %v by more than a bucket", p99, slo)
	}
}

// TestConcurrentSessionsAndMutations: sessions store, query, and mutate
// concurrently against one App (run under -race in CI).
func TestConcurrentSessionsAndMutations(t *testing.T) {
	app, net := newApp(t, nil)
	srv := httptest.NewServer(app.Handler())
	defer srv.Close()
	client := srv.Client()
	post := func(path, body string) (int, error) {
		resp, err := client.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := fmt.Sprintf("w%d", w)
			prof, _ := json.Marshal(map[string]any{"profile": []serve.ProfileEntry{
				{Pred: fmt.Sprintf("dblp.venue=%q", net.Venues[w%len(net.Venues)]), Intensity: 0.5},
			}})
			req, _ := http.NewRequest("PUT", srv.URL+"/v1/session/"+id+"/profile", bytes.NewReader(prof))
			resp, err := client.Do(req)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("worker %d PUT: status %d", w, resp.StatusCode)
				return
			}
			for i := 0; i < 8; i++ {
				if code, err := post("/v1/query", fmt.Sprintf(`{"session":%q,"k":4}`, id)); err != nil || code != 200 {
					errs <- fmt.Errorf("worker %d query %d: code %d err %v", w, i, code, err)
					return
				}
				if i%3 == 0 {
					pid := net.Papers[(w*31+i*7)%len(net.Papers)].PID
					code, err := post("/v1/mutate", fmt.Sprintf(`{"ops":[{"kind":"update_year","pid":%d,"year":%d}]}`, pid, 1995+i))
					if err != nil || code != 200 {
						errs <- fmt.Errorf("worker %d mutate %d: code %d err %v", w, i, code, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMutateIsOneCommit: a multi-op mutate is one store commit. Its four
// ops (insert P at venue V, link P, re-year an existing paper, insert P2 at
// V) move each touched table exactly one epoch, and readers running during
// the mutate see P and P2 both or neither — never a half-applied request.
func TestMutateIsOneCommit(t *testing.T) {
	app, net := newApp(t, nil)
	const p, p2 = 900001, 900002
	venue := net.Venues[0]
	pref := []hypre.ScoredPred{mustPref(t, fmt.Sprintf("dblp.venue=%q", venue), 0.5)}
	body, err := json.Marshal(map[string]any{"ops": []map[string]any{
		{"kind": "insert", "pid": p, "venue": venue, "year": net.Cfg.MinYear},
		{"kind": "link_add", "pid": p, "authors": []int{1}},
		{"kind": "update_year", "pid": net.Papers[0].PID, "year": net.Cfg.MaxYear},
		{"kind": "insert", "pid": p2, "venue": venue, "year": net.Cfg.MinYear, "authors": []int{2}},
	}})
	if err != nil {
		t.Fatal(err)
	}

	// seen reports which of P, P2 a from-scratch ranking of venue V holds.
	seen := func() (bool, bool, error) {
		res, err := app.Uncached(pref, 1<<20)
		if err != nil {
			return false, false, err
		}
		var hasP, hasP2 bool
		for _, r := range res {
			hasP = hasP || r.PID == p
			hasP2 = hasP2 || r.PID == p2
		}
		return hasP, hasP2, nil
	}

	stamp := net.DB.EpochStamp("dblp", "dblp_author")
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				hasP, hasP2, err := seen()
				if err == nil && hasP != hasP2 {
					err = fmt.Errorf("reader saw half a mutate: P %v, P2 %v", hasP, hasP2)
				}
				if err != nil {
					errs <- err
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	code, m := do(t, app, "POST", "/v1/mutate", string(body))
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if code != http.StatusOK || m["applied"].(float64) != 4 {
		t.Fatalf("mutate: %d %v", code, m)
	}
	if got := net.DB.EpochStamp("dblp", "dblp_author") - stamp; got != 2 {
		t.Fatalf("epoch stamp advanced by %d, want 2 (one commit touching two tables)", got)
	}
	if hasP, hasP2, err := seen(); err != nil || !hasP || !hasP2 {
		t.Fatalf("after the mutate: P %v, P2 %v, err %v", hasP, hasP2, err)
	}
}

// TestMetricsStoreGroup reads the store's per-table gauges off /metrics:
// dblp's row count is the table's, and an inserted paper moves it by one.
func TestMetricsStoreGroup(t *testing.T) {
	app, net := newApp(t, nil)
	metrics := func() string {
		req := httptest.NewRequest("GET", "/metrics", nil)
		w := httptest.NewRecorder()
		app.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("GET /metrics: %d", w.Code)
		}
		return w.Body.String()
	}
	line := func(field string, v int) string {
		return fmt.Sprintf(`hypre_group{name="store",field=%q} %d`, field, v)
	}
	dblp := net.DB.Table("dblp")
	before := dblp.Len()
	if body := metrics(); !strings.Contains(body, line("dblp.rows", before)) {
		t.Fatalf("/metrics lacks %s:\n%s", line("dblp.rows", before), body)
	}
	body := fmt.Sprintf(`{"ops":[{"kind":"insert","pid":900001,"venue":%q,"year":%d}]}`,
		net.Venues[0], net.Cfg.MinYear)
	if code, m := do(t, app, "POST", "/v1/mutate", body); code != http.StatusOK {
		t.Fatalf("mutate: %d %v", code, m)
	}
	got := metrics()
	for _, want := range []string{line("dblp.rows", before+1), line("dblp.dead", 0)} {
		if !strings.Contains(got, want) {
			t.Fatalf("/metrics lacks %s after an insert:\n%s", want, got)
		}
	}
	for _, field := range []string{"dblp.index_keys", "dblp.index_postings", "dblp.change_log",
		"dblp_author.rows"} {
		if !strings.Contains(got, fmt.Sprintf(`field=%q}`, field)) {
			t.Fatalf("/metrics lacks store field %s:\n%s", field, got)
		}
	}
}
