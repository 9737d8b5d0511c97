// Package serve is the HTTP serving tier: a long-lived multi-tenant
// preference server multiplexing concurrent sessions over one shared
// cache.Server → topk/combine → delta stack. Each session stores a
// canonicalized preference profile under a client-chosen id; queries route
// through the profile-fingerprint result cache (so sessions sharing a
// canonical profile share cache entries and single-flight evaluations),
// a mutate request commits all its ops as one store batch (all or
// nothing) and synchronizes the delta maintainer inline, and every route
// class sits behind an admission gate that sheds load with Retry-After
// once the queue delay would blow the latency SLO.
//
// A profile is canonicalized once: when a session is stored, or when an
// inline query arrives. The resulting combine.Canonical goes to the cache
// as is, so a query on a stored session does no canonicalization at all.
// The 200 of a query is appended into a pooled buffer without reflection
// (encode.go), byte-identical to what encoding/json would write; every
// other response is marshaled by encoding/json before its header is sent.
//
// cmd/hypred wires this App to a real listener; the tests and the bench/
// harness boot the identical App in-process via Handler.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"hypre/internal/admit"
	"hypre/internal/cache"
	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/relstore"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

// StatusClientClosedRequest is the nginx-convention status answered when the
// client's context ends while its request is queued or in flight — the
// client is gone, but the ledger should not count the abort as a server
// error.
const StatusClientClosedRequest = 499

// Options configures an App. The zero value of every field has a sensible
// default; Net is the only required field.
type Options struct {
	// Net is the citation network whose store the server serves.
	Net *workload.Network
	// CacheBytes is the result cache budget (default: cache.Config's).
	CacheBytes int64
	// Slow is the slow-log threshold (default 25ms).
	Slow time.Duration
	// Query and Mutate gate the two route classes (zero = unlimited).
	Query  admit.Config
	Mutate admit.Config
	// MaxProfilePrefs bounds a stored or inline profile (default 128).
	MaxProfilePrefs int
	// MaxOpsPerBatch bounds one mutate call (default 1024).
	MaxOpsPerBatch int
	// MaxK bounds a query's k (default 1000).
	MaxK int
}

// ProfileEntry is the wire form of one preference.
type ProfileEntry struct {
	Pred      string  `json:"pred"`
	Intensity float64 `json:"intensity"`
}

// session is one stored profile: its canonical form (preference list and
// fingerprint, canonicalized once when stored) and the wire-form entries
// GET round-trips.
type session struct {
	canon   combine.Canonical
	entries []ProfileEntry
}

// App is the serving tier's HTTP application.
type App struct {
	db    *relstore.DB
	ev    *combine.Evaluator
	srv   *cache.Server
	maint *delta.Maintainer
	reg   *obs.Registry
	slow  *obs.SlowLog
	opts  Options

	queryGate  *admit.Gate
	mutateGate *admit.Gate

	mux *http.ServeMux

	sessMu   sync.RWMutex
	sessions map[string]*session
}

// New builds the App over opts.Net.
func New(opts Options) (*App, error) {
	if opts.Net == nil {
		return nil, errors.New("serve: Options.Net is required")
	}
	if opts.Slow <= 0 {
		opts.Slow = 25 * time.Millisecond
	}
	if opts.MaxProfilePrefs <= 0 {
		opts.MaxProfilePrefs = 128
	}
	if opts.MaxOpsPerBatch <= 0 {
		opts.MaxOpsPerBatch = 1024
	}
	if opts.MaxK <= 0 {
		opts.MaxK = 1000
	}
	reg := obs.NewRegistry()
	slow := obs.NewSlowLog(opts.Slow, 128)
	ev := combine.NewEvaluator(opts.Net.DB, workload.BaseQuery, "dblp.pid")
	srv := cache.NewServer(ev, cache.Config{
		MaxBytes: opts.CacheBytes,
		Registry: reg,
		SlowLog:  slow,
	})
	maint, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		return nil, err
	}
	maint.AttachObs(reg)
	maint.AttachCache(srv)
	ctrl := admit.NewController(reg)
	a := &App{
		db:         opts.Net.DB,
		ev:         ev,
		srv:        srv,
		maint:      maint,
		reg:        reg,
		slow:       slow,
		opts:       opts,
		queryGate:  ctrl.AddClass("query", opts.Query),
		mutateGate: ctrl.AddClass("mutate", opts.Mutate),
		sessions:   make(map[string]*session),
	}
	a.routes()
	return a, nil
}

// Handler is the full endpoint set, debug surface included.
func (a *App) Handler() http.Handler { return a.mux }

// Server exposes the caching tier (tests assert cache state through it).
func (a *App) Server() *cache.Server { return a.srv }

// SeedSession stores a profile server-side (cmd/hypred's -seed.sessions and
// the bench/ harness use it to skip the PUT round trip).
func (a *App) SeedSession(id string, prefs []hypre.ScoredPred) (combine.Fingerprint, error) {
	s, err := a.buildSession(prefs)
	if err != nil {
		return combine.Fingerprint{}, err
	}
	a.sessMu.Lock()
	a.sessions[id] = s
	a.sessMu.Unlock()
	return s.canon.Fingerprint(), nil
}

// routes mounts the API and the PR 8 debug surface on one mux.
func (a *App) routes() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", a.handleQuery)
	mux.HandleFunc("PUT /v1/session/{id}/profile", a.handlePutProfile)
	mux.HandleFunc("GET /v1/session/{id}/profile", a.handleGetProfile)
	mux.HandleFunc("POST /v1/mutate", a.handleMutate)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n")) //nolint:errcheck
	})
	debug := obs.NewDebugMux(obs.DebugOptions{
		Registry: a.reg,
		SlowLog:  a.slow,
		Trace:    a.traceSession,
	})
	mux.Handle("/metrics", debug)
	mux.Handle("/debug/", debug)
	a.mux = mux
}

// traceSession is the /debug/trace hook: the query string names a stored
// session, whose profile runs once with tracing forced on.
func (a *App) traceSession(query string, k int) (*obs.Trace, error) {
	a.sessMu.RLock()
	s, ok := a.sessions[query]
	a.sessMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown session %q (store one via PUT /v1/session/{id}/profile)", query)
	}
	tr := obs.NewTrace()
	if _, _, err := a.srv.TopKContext(context.Background(), s.canon, k, tr); err != nil {
		return nil, err
	}
	return tr, nil
}

// --- wire types ---

type queryRequest struct {
	Session string         `json:"session"`
	Profile []ProfileEntry `json:"profile"`
	K       int            `json:"k"`
}

type profileRequest struct {
	Profile []ProfileEntry `json:"profile"`
}

type profileResponse struct {
	Session     string         `json:"session"`
	Fingerprint string         `json:"fingerprint"`
	Profile     []ProfileEntry `json:"profile"`
}

type mutateRequest struct {
	Ops []mutateOp `json:"ops"`
}

// mutateOp is workload.Op as it arrives: Kind shadows the embedded field
// with a pointer so an op object without a "kind" key is told apart from
// the zero kind (an insert).
type mutateOp struct {
	Kind *workload.OpKind `json:"kind"`
	workload.Op
}

// resolve validates one arrived op against what workload.Op.Stage reads for
// its kind and returns it ready to apply.
func (m mutateOp) resolve() (workload.Op, error) {
	if m.Kind == nil {
		return workload.Op{}, errors.New(`missing "kind"`)
	}
	op := m.Op
	op.Kind = *m.Kind
	switch op.Kind {
	case workload.OpLinkAdd:
		if len(op.Authors) != 1 {
			return workload.Op{}, fmt.Errorf("link_add needs exactly one author, got %d", len(op.Authors))
		}
	case workload.OpInsert:
		if op.Venue == "" {
			return workload.Op{}, errors.New("insert needs a venue")
		}
	}
	return op, nil
}

type mutateResponse struct {
	Applied     int  `json:"applied"`
	TouchedRows int  `json:"touched_rows"`
	FullRebuild bool `json:"full_rebuild"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

// admitOr runs one arrival through a gate, answering 429 (+Retry-After) on
// shed and 499 on client abort. The bool reports whether the handler should
// continue.
func (a *App) admitOr(w http.ResponseWriter, r *http.Request, g *admit.Gate) bool {
	_, err := g.Admit(r.Context())
	if err == nil {
		return true
	}
	var shed *admit.ShedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", shed.RetryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, shed.Error())
		return false
	}
	writeError(w, StatusClientClosedRequest, "client closed request while queued")
	return false
}

func (a *App) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !a.admitOr(w, r, a.queryGate) {
		return
	}
	var req queryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, "k must be >= 1")
		return
	}
	if req.K > a.opts.MaxK {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("k must be <= %d", a.opts.MaxK))
		return
	}
	var c combine.Canonical
	switch {
	case req.Session != "" && req.Profile != nil:
		writeError(w, http.StatusBadRequest, "set session or profile, not both")
		return
	case req.Session != "":
		a.sessMu.RLock()
		s, ok := a.sessions[req.Session]
		a.sessMu.RUnlock()
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", req.Session))
			return
		}
		c = s.canon
	case len(req.Profile) > 0:
		if len(req.Profile) > a.opts.MaxProfilePrefs {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("profile has %d preferences, limit %d", len(req.Profile), a.opts.MaxProfilePrefs))
			return
		}
		prefs, err := parseProfile(req.Profile)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		c = combine.Canonicalize(prefs)
	default:
		writeError(w, http.StatusBadRequest, "a query needs a session id or an inline profile")
		return
	}
	res, outcome, err := a.srv.TopKContext(r.Context(), c, req.K, nil)
	if err != nil {
		if r.Context().Err() != nil && errors.Is(err, r.Context().Err()) {
			writeError(w, StatusClientClosedRequest, "client closed request")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeQueryResponse(w, outcome, c.Fingerprint(), req.K, res)
}

func (a *App) handlePutProfile(w http.ResponseWriter, r *http.Request) {
	if !a.admitOr(w, r, a.queryGate) {
		return
	}
	id := r.PathValue("id")
	var req profileRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Profile) > a.opts.MaxProfilePrefs {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("profile has %d preferences, limit %d", len(req.Profile), a.opts.MaxProfilePrefs))
		return
	}
	prefs, err := parseProfile(req.Profile)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s, err := a.buildSession(prefs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	a.sessMu.Lock()
	a.sessions[id] = s
	a.sessMu.Unlock()
	writeJSON(w, http.StatusOK, profileResponse{
		Session:     id,
		Fingerprint: s.canon.Fingerprint().String(),
		Profile:     s.entries,
	})
}

func (a *App) handleGetProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	a.sessMu.RLock()
	s, ok := a.sessions[id]
	a.sessMu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown session %q", id))
		return
	}
	writeJSON(w, http.StatusOK, profileResponse{
		Session:     id,
		Fingerprint: s.canon.Fingerprint().String(),
		Profile:     s.entries,
	})
}

func (a *App) handleMutate(w http.ResponseWriter, r *http.Request) {
	if !a.admitOr(w, r, a.mutateGate) {
		return
	}
	var req mutateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "a mutate call needs at least one op")
		return
	}
	if len(req.Ops) > a.opts.MaxOpsPerBatch {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch has %d ops, limit %d", len(req.Ops), a.opts.MaxOpsPerBatch))
		return
	}
	// Validate the whole batch before taking the lock: a malformed op
	// answers 400 with nothing applied.
	ops := make([]workload.Op, len(req.Ops))
	for i, m := range req.Ops {
		op, err := m.resolve()
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("op %d: %v", i, err))
			return
		}
		ops[i] = op
	}
	stats, err := a.applyAndSync(ops)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, mutateResponse{
		Applied:     len(ops),
		TouchedRows: stats.TouchedRows,
		FullRebuild: stats.FullRebuild,
	})
}

// applyAndSync stages every op into one relstore.Batch, commits it as one
// hold — the request is all-or-nothing — and syncs the maintainer, all in
// one cache.Server.Write: the response promises the caches have absorbed
// this batch, interleaved batches would make the per-batch sync stats
// meaningless, and a query arriving mid-mutate waits for the Sync instead
// of evaluating uncached. A commit error applied nothing, so there is
// nothing to sync. Write releases its lock by defer, so a panic below
// (net/http recovers the goroutine) cannot wedge every later mutate.
func (a *App) applyAndSync(ops []workload.Op) (stats delta.SyncStats, err error) {
	err = a.srv.Write(func() error {
		b := a.db.NewBatch()
		for _, op := range ops {
			op.Stage(b)
		}
		if err := b.Commit(); err != nil {
			return fmt.Errorf("commit (nothing applied): %w", err)
		}
		if stats, err = a.maint.Sync(); err != nil {
			return fmt.Errorf("maintenance sync: %w", err)
		}
		return nil
	})
	return stats, err
}

// --- helpers ---

// buildSession canonicalizes a parsed profile; a profile that canonicalizes
// to nothing is rejected (its fingerprint would alias every other empty
// profile and the query would rank nothing).
func (a *App) buildSession(prefs []hypre.ScoredPred) (*session, error) {
	c := combine.Canonicalize(prefs)
	canon := c.Prefs()
	if len(canon) == 0 {
		return nil, errors.New("profile canonicalizes to zero usable preferences")
	}
	if len(canon) > a.opts.MaxProfilePrefs {
		return nil, fmt.Errorf("profile has %d canonical preferences, limit %d", len(canon), a.opts.MaxProfilePrefs)
	}
	entries := make([]ProfileEntry, len(canon))
	for i, p := range canon {
		entries[i] = ProfileEntry{Pred: p.Pred, Intensity: p.Intensity}
	}
	return &session{canon: c, entries: entries}, nil
}

// parseProfile parses wire preferences into scored predicates.
func parseProfile(entries []ProfileEntry) ([]hypre.ScoredPred, error) {
	prefs := make([]hypre.ScoredPred, 0, len(entries))
	for i, e := range entries {
		sp, err := hypre.NewScoredPred(e.Pred, e.Intensity)
		if err != nil {
			return nil, fmt.Errorf("profile[%d]: %v", i, err)
		}
		prefs = append(prefs, sp)
	}
	return prefs, nil
}

// decodeJSON reads a bounded request body; a false return means the error
// response is already written.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds 1 MiB")
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return false
	}
	return true
}

// writeJSON answers v as encoding/json's Encoder would write it. It marshals
// before writing the header, so a value that cannot be encoded answers 500
// with an error body instead of a 200 with none.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encode response: %v", err))
		return
	}
	writeBody(w, status, append(b, '\n'))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// Uncached answers a profile query on a fresh evaluator over the same store
// through the paper's baseline, BuildLists + TA — the reference every cached
// answer must equal (the serve tests and bench/'s answer check assert
// through it). It shares no fold code with the served resident ranking
// beyond AttrSlots, Outranks and FAnd.
func (a *App) Uncached(prefs []hypre.ScoredPred, k int) ([]combine.ScoredTuple, error) {
	canon, _ := combine.CanonicalProfile(prefs)
	lists, err := topk.BuildLists(combine.NewEvaluator(a.db, workload.BaseQuery, "dblp.pid"), canon)
	if err != nil {
		return nil, err
	}
	return lists.TA(k), nil
}
