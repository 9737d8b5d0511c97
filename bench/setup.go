package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"hypre/internal/admit"
	"hypre/internal/hypre"
	"hypre/internal/relstore"
	"hypre/internal/serve"
	"hypre/internal/workload"
)

// scale fixes the store size and the per-workload population sizes. full is
// the benchmark; smoke exists for bench_test.go only and its numbers mean
// nothing.
type scale struct {
	name                    string
	papers, authors, venues int

	hotSessions   int // hot-read: stored sessions under the Zipf draw
	mixedSessions int // mixed-rw: stored sessions under the Zipf draw
	sessionCap    int // preferences per stored session
	pepsUsers     int // peps-direct: users in the round robin
	pepsMinPrefs  int // peps-direct: a user needs this many positive preferences
	pepsCap       int // peps-direct: profile cap

	kernelWords int // calibration kernel size, uint64s per worker

	coldWarmBatch int // cold-read: warm-up batch size
	coldWarmMax   int // cold-read: most warm-up batches

	// Traced replay lengths. hot-read ops are microseconds; cold-read and
	// mixed-rw ops are mostly ~10ms misses and are replayed twice.
	traceOpsHTTP, traceOpsCold, traceOpsMixed, traceOpsPEPS int
}

var scales = map[string]scale{
	// 32000 papers are 32 relstore blocks, so zone maps and block iterators
	// have something to skip; ~3.9k users carry a profile.
	"full": {
		name: "full", papers: 32000, authors: 8000, venues: 80,
		hotSessions: 64, mixedSessions: 512, sessionCap: 24,
		pepsUsers: 256, pepsMinPrefs: 16, pepsCap: 40,
		kernelWords:   1 << 21,
		coldWarmBatch: 100, coldWarmMax: 6,
		traceOpsHTTP: 2000, traceOpsCold: 400, traceOpsMixed: 630, traceOpsPEPS: 100,
	},
	"smoke": {
		name: "smoke", papers: 2000, authors: 600, venues: 20,
		hotSessions: 16, mixedSessions: 32, sessionCap: 12,
		pepsUsers: 8, pepsMinPrefs: 8, pepsCap: 16,
		kernelWords:   1 << 16,
		coldWarmBatch: 20, coldWarmMax: 2,
		traceOpsHTTP: 200, traceOpsCold: 60, traceOpsMixed: 210, traceOpsPEPS: 8,
	},
}

// lab is the seeded data set: the citation network in its store, the
// extracted preferences and the HYPRE graph built from them, with what each
// step cost.
type lab struct {
	net   *workload.Network
	prefs *workload.Prefs
	graph *hypre.Graph

	generateS, extractS, graphS float64
	tableBytes                  int64 // live-heap growth across generation
	tableRows                   int
}

// buildLab generates the store from seed, wired as cmd/hypred wires it
// (group commit on). counters, when non-nil, is attached to the store.
func buildLab(sc scale, seed int64, counters *relstore.StoreCounters) (*lab, error) {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.NumPapers, cfg.NumAuthors, cfg.NumVenues = sc.papers, sc.authors, sc.venues
	opts := []relstore.DBOption{relstore.WithGroupCommit(true)}
	if counters != nil {
		opts = append(opts, relstore.WithStoreCounters(counters))
	}

	l := &lab{}
	before := liveHeap()
	t0 := time.Now()
	net, err := workload.GenerateWith(cfg, opts...)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	l.generateS = time.Since(t0).Seconds()
	l.net = net
	// relstore exposes no byte accounting of its column vectors, so the
	// table footprint is the live heap the generation left behind (the
	// generator's own adjacency lists included, constant across store
	// changes). Measured outside the generate timing.
	l.tableBytes = int64(liveHeap()) - int64(before)
	for _, name := range []string{"dblp", "author", "citation", "dblp_author"} {
		l.tableRows += net.DB.Table(name).Len()
	}

	t0 = time.Now()
	l.prefs = workload.Extract(net, workload.DefaultExtractConfig())
	l.extractS = time.Since(t0).Seconds()

	t0 = time.Now()
	l.graph = hypre.NewGraph(hypre.DefaultAvg)
	if _, err := l.graph.Build(l.prefs.Quant, l.prefs.Qual); err != nil {
		return nil, fmt.Errorf("graph build: %w", err)
	}
	l.graphS = time.Since(t0).Seconds()
	return l, nil
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// server is the real serving tier on a loopback listener plus the client
// that drives it: one persistent connection per worker.
type server struct {
	app    *serve.App
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// appOptions is cmd/hypred's default wiring: both gates unlimited, the
// slow-log threshold at 25ms.
func appOptions(net *workload.Network, cacheBytes int64) serve.Options {
	return serve.Options{
		Net:        net,
		CacheBytes: cacheBytes,
		Slow:       25 * time.Millisecond,
		Query:      admit.Config{Burst: 64, MaxQueue: 2048, SLO: 50 * time.Millisecond},
		Mutate:     admit.Config{Burst: 16, MaxQueue: 512, SLO: 100 * time.Millisecond},
	}
}

// bootServer starts serve.New(...).Handler() on 127.0.0.1:0.
func bootServer(net_ *workload.Network, cacheBytes int64, workers int) (*server, error) {
	app, err := serve.New(appOptions(net_, cacheBytes))
	if err != nil {
		return nil, err
	}
	return serveHandler(app.Handler(), app, workers)
}

// serveHandler serves h on a loopback listener; app may be nil (the driver
// test serves a bare handler).
func serveHandler(h http.Handler, app *serve.App, workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		app:    app,
		srv:    &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConns:        workers,
				MaxIdleConnsPerHost: workers,
				MaxConnsPerHost:     workers,
			},
		},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// close shuts the listener down and waits for the serve goroutine.
func (s *server) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// roundTrip sends one request and drains the answer, returning the status
// and the body length (the body itself when keep is set).
func (s *server) roundTrip(ctx context.Context, method, path string, body []byte, keep bool) (status int, n int64, got []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		got, err = io.ReadAll(resp.Body)
		n = int64(len(got))
	} else {
		n, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return resp.StatusCode, n, nil, fmt.Errorf("read %s %s: %w", method, path, err)
	}
	return resp.StatusCode, n, got, nil
}

// putSessions stores every session of the plan over the wire, as a client
// would.
func (s *server) putSessions(ctx context.Context, sessions []session) error {
	for i := range sessions {
		se := &sessions[i]
		status, _, _, err := s.roundTrip(ctx, http.MethodPut, "/v1/session/"+se.id+"/profile", se.putBody, false)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("PUT session %s: status %d", se.id, status)
		}
	}
	return nil
}
