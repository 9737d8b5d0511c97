// Command hypred is the long-lived preference server: it generates (or will
// one day load) a citation network and serves the multi-tenant HTTP API of
// internal/serve over it — session profiles, fingerprint-cached top-k
// queries, batched mutations, admission control per route class, and the
// /metrics + /debug ops surface — all on one listener.
//
//	hypred -addr :8080 -seed.sessions 4
//
// boots a default network with four pre-seeded sessions (their ids are
// logged) so a client can query without first storing a profile; only then
// are preferences extracted and the HYPRE graph built.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"hypre/internal/admit"
	"hypre/internal/hypre"
	"hypre/internal/serve"
	"hypre/internal/workload"
)

func main() {
	var (
		addr = flag.String("addr", ":8080", "listen address")

		papers  = flag.Int("papers", 4000, "generated papers")
		authors = flag.Int("authors", 1200, "generated authors")
		venues  = flag.Int("venues", 40, "generated venues")
		seed    = flag.Int64("seed", 42, "workload seed")
		zipf    = flag.Float64("zipf", 0, "venue/author popularity skew (0 = default)")

		cacheBytes = flag.Int64("cache.bytes", 0, "result cache budget (0 = default 64 MiB)")
		slowThresh = flag.Duration("slow.threshold", 25*time.Millisecond, "slow-log threshold")

		qRate  = flag.Float64("admit.query.rate", 0, "query admission rate/s (0 = unlimited)")
		qBurst = flag.Int("admit.query.burst", 64, "query token-bucket depth")
		qQueue = flag.Int("admit.query.queue", 2048, "query max queued arrivals")
		qSLO   = flag.Duration("admit.query.slo", 50*time.Millisecond, "query queue-delay SLO")
		mRate  = flag.Float64("admit.mutate.rate", 0, "mutate admission rate/s (0 = unlimited)")
		mBurst = flag.Int("admit.mutate.burst", 16, "mutate token-bucket depth")
		mQueue = flag.Int("admit.mutate.queue", 512, "mutate max queued arrivals")
		mSLO   = flag.Duration("admit.mutate.slo", 100*time.Millisecond, "mutate queue-delay SLO")

		seedSessions = flag.Int("seed.sessions", 0, "pre-seed N sessions from extracted user profiles")
	)
	flag.Parse()

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumPapers = *papers
	cfg.NumAuthors = *authors
	cfg.NumVenues = *venues
	if *zipf > 0 {
		cfg.ZipfS = *zipf
	}

	log.Printf("hypred: generating network (papers=%d authors=%d venues=%d seed=%d)",
		cfg.NumPapers, cfg.NumAuthors, cfg.NumVenues, cfg.Seed)
	net, err := workload.Generate(cfg)
	if err != nil {
		log.Fatalf("hypred: workload: %v", err)
	}

	app, err := serve.New(serve.Options{
		Net:        net,
		CacheBytes: *cacheBytes,
		Slow:       *slowThresh,
		Query:      admit.Config{Rate: *qRate, Burst: *qBurst, MaxQueue: *qQueue, SLO: *qSLO},
		Mutate:     admit.Config{Rate: *mRate, Burst: *mBurst, MaxQueue: *mQueue, SLO: *mSLO},
	})
	if err != nil {
		log.Fatalf("hypred: %v", err)
	}

	// Pre-seed sessions from the extracted preference workload, richest
	// profiles first, so a scripted client (the CI smoke) has known-good
	// sessions to replay without speaking the predicate language itself.
	// The HYPRE graph (Algorithm 1 over every user) exists only for this.
	if *seedSessions > 0 {
		prefs := workload.Extract(net, workload.DefaultExtractConfig())
		graph := hypre.NewGraph(hypre.DefaultAvg)
		if _, err := graph.Build(prefs.Quant, prefs.Qual); err != nil {
			log.Fatalf("hypred: preference graph: %v", err)
		}
		counts := prefs.CountByUser()
		users := append([]int64(nil), prefs.Users...)
		sort.Slice(users, func(i, j int) bool {
			if counts[users[i]] != counts[users[j]] {
				return counts[users[i]] > counts[users[j]]
			}
			return users[i] < users[j]
		})
		n := 0
		for _, uid := range users {
			if n >= *seedSessions {
				break
			}
			prof := graph.PositiveProfile(uid)
			if len(prof) == 0 {
				continue
			}
			prof = prof[:min(len(prof), 16)]
			id := fmt.Sprintf("u%d", uid)
			fp, err := app.SeedSession(id, prof)
			if err != nil {
				continue
			}
			log.Printf("hypred: seeded session %s (%d prefs, fingerprint %s)", id, len(prof), fp.String())
			n++
		}
		if n == 0 {
			log.Fatal("hypred: -seed.sessions set but no usable profiles found")
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           app.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		log.Printf("hypred: serving on %s (POST /v1/query, PUT/GET /v1/session/{id}/profile, POST /v1/mutate, /metrics, /debug)", *addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("hypred: listen: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("hypred: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}
