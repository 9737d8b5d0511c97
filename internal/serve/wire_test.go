package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"hypre/internal/cache"
	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/serve"
)

// resultRow and queryResponse are the 200 of POST /v1/query as the server
// once declared it for encoding/json. The hand-appended body must equal
// what json.NewEncoder writes for them, byte for byte.
type resultRow struct {
	PID   int64   `json:"pid"`
	Score float64 `json:"score"`
}

type queryResponse struct {
	Outcome     string      `json:"outcome"`
	Fingerprint string      `json:"fingerprint"`
	K           int         `json:"k"`
	Results     []resultRow `json:"results"`
}

// referenceBody is json.NewEncoder's output for one query answer.
func referenceBody(t testing.TB, outcome string, fp combine.Fingerprint, k int, res []combine.ScoredTuple) string {
	t.Helper()
	rows := make([]resultRow, len(res))
	for i, r := range res {
		rows[i] = resultRow{PID: r.PID, Score: r.Intensity}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(queryResponse{
		Outcome:     outcome,
		Fingerprint: fp.String(),
		K:           k,
		Results:     rows,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestQueryResponseMatchesEncodingJSON: the served 200 of a query is
// byte-identical to encoding/json's rendering of the reference struct, for
// misses and hits at k = 1 and k = MaxK, for an empty answer, and for
// scores encoding/json writes in exponent form.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	const maxK = 200
	app, net := newApp(t, func(o *serve.Options) { o.MaxK = maxK })
	profiles := map[string][]hypre.ScoredPred{
		"two prefs": {
			mustPref(t, fmt.Sprintf("dblp.venue=%q", net.Venues[0]), 1.0/3),
			mustPref(t, fmt.Sprintf("dblp.year=%d", net.Cfg.MinYear+1), 0.3),
		},
		"exponent scores": {mustPref(t, fmt.Sprintf("dblp.venue=%q", net.Venues[1]), 2.5e-9)},
		"empty answer":    {mustPref(t, "dblp.year=1800", 0.5)},
	}
	for name, prefs := range profiles {
		if _, err := app.SeedSession(name, prefs); err != nil {
			t.Fatal(err)
		}
		fp := combine.ProfileFingerprint(prefs)
		for _, k := range []int{1, maxK} {
			want, err := app.Uncached(prefs, k)
			if err != nil {
				t.Fatal(err)
			}
			if name != "empty answer" && len(want) == 0 {
				t.Fatalf("%s: the reference answer is empty", name)
			}
			inline := make([]serve.ProfileEntry, len(prefs))
			for i, p := range prefs {
				inline[i] = serve.ProfileEntry{Pred: p.Pred, Intensity: p.Intensity}
			}
			bodies := []any{
				map[string]any{"session": name, "k": k},
				map[string]any{"profile": inline, "k": k},
			}
			for i, outcome := range []string{"miss", "hit"} {
				req, err := json.Marshal(bodies[i])
				if err != nil {
					t.Fatal(err)
				}
				w := httptest.NewRecorder()
				app.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(req)))
				if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
					t.Fatalf("%s k=%d %s: status %d, Content-Type %q", name, k, outcome, w.Code, w.Header().Get("Content-Type"))
				}
				if got, want := w.Body.String(), referenceBody(t, outcome, fp, k, want); got != want {
					t.Fatalf("%s k=%d %s:\nserved    %q\nreference %q", name, k, outcome, got, want)
				}
			}
		}
	}

	// The handler hands whatever outcome the cache reports to the same
	// writer; a shared wait or a bypass cannot be forced through it, so
	// drive the writer with those outcomes directly.
	prefs := profiles["two prefs"]
	fp := combine.ProfileFingerprint(prefs)
	res, err := app.Uncached(prefs, maxK)
	if err != nil {
		t.Fatal(err)
	}
	for _, out := range []cache.Outcome{cache.SharedMiss, cache.StaleBypass} {
		w := httptest.NewRecorder()
		serve.WriteQueryResponse(w, out, fp, maxK, res)
		if got, want := w.Body.String(), referenceBody(t, out.String(), fp, maxK, res); w.Code != http.StatusOK || got != want {
			t.Fatalf("%s: status %d\nserved    %q\nreference %q", out, w.Code, got, want)
		}
	}
}

// TestQueryResponseNonFiniteScore: a score JSON cannot carry answers 500
// with an error body, never a 200 with an invalid one.
func TestQueryResponseNonFiniteScore(t *testing.T) {
	for _, score := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		w := httptest.NewRecorder()
		serve.WriteQueryResponse(w, cache.Hit, combine.Fingerprint{}, 2,
			[]combine.ScoredTuple{{PID: 1, Intensity: 0.5}, {PID: 2, Intensity: score}})
		assertErrorBody(t, w, http.StatusInternalServerError)
	}
}

// TestWriteJSONUnencodable: a value encoding/json rejects answers 500 with
// an error body; the header is not written before the body is encoded.
func TestWriteJSONUnencodable(t *testing.T) {
	w := httptest.NewRecorder()
	serve.WriteJSON(w, http.StatusOK, struct {
		Score float64 `json:"score"`
	}{math.NaN()})
	assertErrorBody(t, w, http.StatusInternalServerError)
}

func assertErrorBody(t *testing.T, w *httptest.ResponseRecorder, status int) {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if w.Code != status || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, Content-Type %q; want %d JSON", w.Code, w.Header().Get("Content-Type"), status)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Fatalf("body %q is not a JSON error (%v)", w.Body.String(), err)
	}
}

// FuzzAppendScore: every finite float64 encodes to the bytes json.Marshal
// writes for it.
func FuzzAppendScore(f *testing.F) {
	for _, v := range []float64{
		1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e21, math.Nextafter(1e21, 0), -1e21,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, 1.0 / 3, -1.0 / 3, 1, 1e-7, 1.5e-10, 123456789, math.MaxFloat64,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := serve.AppendScore([]byte("["), v); string(got) != "["+string(want) {
			t.Fatalf("%v (bits %#x): appended %q, encoding/json %q", v, bits, got[1:], want)
		}
	})
}

// FuzzQueryRequest feeds arbitrary bytes to POST /v1/query. The handler
// must not panic; it answers 200, 400, 404 or 413; every rejection carries
// a JSON error; and every 200 is the uncached answer to the request as the
// handler's decoder reads it.
func FuzzQueryRequest(f *testing.F) {
	app, net := newApp(f, func(o *serve.Options) { o.MaxProfilePrefs = 4; o.MaxK = 50 })
	sessions := map[string][]hypre.ScoredPred{
		"s1": {mustPref(f, fmt.Sprintf("dblp.venue=%q", net.Venues[0]), 0.4)},
	}
	for id, prefs := range sessions {
		if _, err := app.SeedSession(id, prefs); err != nil {
			f.Fatal(err)
		}
	}
	for _, c := range malformedCases(net) {
		f.Add([]byte(c.body))
	}
	f.Add([]byte(profileBody(net, 5)))
	f.Add([]byte(`{"session":"s1","k":3}`))
	f.Add([]byte(`{"k":2,"profile":[{"pred":"dblp.year=2000","intensity":1e308},{"pred":"dblp.year=2000","intensity":1e308}]}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		app.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge:
			assertErrorBody(t, w, w.Code)
			return
		default:
			t.Fatalf("status %d for body %q: %s", w.Code, body, w.Body.String())
		}

		var req struct {
			Session string               `json:"session"`
			Profile []serve.ProfileEntry `json:"profile"`
			K       int                  `json:"k"`
		}
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("200 for a body the decoder rejects (%v): %q", err, body)
		}
		prefs, ok := sessions[req.Session]
		if req.Session == "" {
			for _, e := range req.Profile {
				sp, err := hypre.NewScoredPred(e.Pred, e.Intensity)
				if err != nil {
					t.Fatalf("200 for an unparsable predicate %q: %v", e.Pred, err)
				}
				prefs = append(prefs, sp)
			}
		} else if !ok {
			t.Fatalf("200 for unknown session %q", req.Session)
		}
		want, err := app.Uncached(prefs, req.K)
		if err != nil {
			t.Fatalf("uncached evaluation of a served request: %v", err)
		}
		var got queryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 body %q does not parse: %v", w.Body.String(), err)
		}
		if got.K != req.K || got.Fingerprint != combine.ProfileFingerprint(prefs).String() || len(got.Results) != len(want) {
			t.Fatalf("served %+v, uncached %d rows for k=%d", got, len(want), req.K)
		}
		for i, r := range got.Results {
			if r.PID != want[i].PID || r.Score != want[i].Intensity {
				t.Fatalf("row %d: served %+v, uncached %+v", i, r, want[i])
			}
		}
	})
}
