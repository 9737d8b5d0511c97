package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/serve"
	"hypre/internal/workload"
)

// The four workloads. Each exists because some layer does most of the work
// on it and almost none on another, so a change to that layer has one
// workload where it must show and one where it must not:
//
//	hot-read    ~100% result-cache hits over HTTP: serve + admit + the cache
//	            hit path do all the work, the engine none.
//	cold-read   inline profiles that never repeat, 1 MiB cache: every query
//	            is parse → canonicalize → miss → stream → publish → evict;
//	            the engine is ~99% of the latency and serve is noise.
//	mixed-rw    open-loop reads beside mutate batches: delta.Sync, the store's
//	            write path and cache invalidation run against the structures
//	            the readers use.
//	peps-direct the paper's PEPS algorithm as a library call: materializing
//	            scans, the pair table and the sharded DFS, which the HTTP path
//	            never reaches.
//
// The admission overload burst is deliberately not a workload: its shed rate
// is pinned by configuration (offered vs admitted rate), so no optimisation
// can move it.
var workloadNames = []string{"hot-read", "cold-read", "mixed-rw", "peps-direct"}

const (
	hotZipfS = 1.3
	// mixed-rw draws sessions Zipf–Mandelbrot, P(rank) ∝ (32+rank)^-1.1: still
	// skewed (the head is ~20× the tail) but no single session carries more
	// than ~1% of the queries. With a plain Zipf(1.1) ten sessions carry half
	// of them, and since one profile's evaluation costs 9–26ms the medians
	// then follow which ten users the seed happened to pick.
	mixedZipfS = 1.1
	mixedZipfV = 32
	// mixed-rw offered load: independent users, so an open loop. One mutate
	// batch dirties a popular venue predicate and with it nearly every cached
	// result, so most queries are ~10ms misses, of which two cores sustain
	// ~200/s; 80 queries and 4 batches a second keep them ~40% busy. Higher,
	// and the queue behind the two connections stops draining (400/s: p50
	// 464ms, 614 arrivals unsent at window end); much lower, and the CPUs idle
	// between requests, which on a shared VM makes every number follow the
	// host's wake-up latency (20/s: p50 spread 34% over ten seeds).
	mixedQueryRate  = 80.0 // queries per second
	mixedMutateRate = 4.0  // mutate batches per second
	mixedBatchOps   = 4
	mixedBigKShare  = 0.25 // share of queries asking k=50 instead of k=10
	// coldCacheBytes makes the stream of distinct fingerprints overflow the
	// budget several times per run, so eviction runs in steady state.
	coldCacheBytes = 1 << 20
	checkSamples   = 32 // answer-check sample, HTTP workloads
	pepsChecks     = 16 // answer-check sample, peps-direct
)

var coldCaps = []int{8, 12, 16, 24}

type opKind uint8

const (
	opQuery opKind = iota
	opMutate
	opPEPS
)

// op is one operation of a plan. An HTTP op carries its wire body; the
// parsed fields serve the direct replay and the answer checks.
type op struct {
	kind opKind
	at   time.Duration // open loop: arrival offset from the window start
	body []byte
	k    int
	sess int                  // stored-session index, -1 for an inline profile
	wire []serve.ProfileEntry // inline profile as sent
	// prefs is the profile evaluated: a stored session's canonical form, an
	// inline profile as parsed, a PEPS user's positive profile.
	prefs []hypre.ScoredPred
	muts  []workload.Op
}

// path is the route an HTTP op is posted to.
func (o *op) path() string {
	if o.kind == opMutate {
		return "/v1/mutate"
	}
	return "/v1/query"
}

// session is one profile stored over the wire during set-up.
type session struct {
	id      string
	prefs   []hypre.ScoredPred
	putBody []byte
}

// plan is a workload instance: everything derived from (workload, seed,
// scale, seconds) before the first request is sent.
type plan struct {
	name       string
	open       bool // open loop: ops carry arrival times; else closed loop
	cycle      bool // closed loop: wrap around when the ops run out
	http       bool
	cacheBytes int64
	sessions   []session
	warm       []op
	ops        []op
	checks     []int // indexes into ops re-checked at quiescence
	hash       string
}

// rngFor derives an independent stream per (seed, purpose).
func rngFor(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// buildPlan derives the workload's sessions, warm-up and op sequence from
// the lab and the seed. seconds sizes the open-loop schedule.
func buildPlan(name string, l *lab, sc scale, seed int64, seconds float64) (*plan, error) {
	var p *plan
	var err error
	switch name {
	case "hot-read":
		p, err = planHotRead(l, sc, seed)
	case "cold-read":
		p, err = planColdRead(l, sc, seed)
	case "mixed-rw":
		p, err = planMixedRW(l, sc, seed, seconds)
	case "peps-direct":
		p, err = planPEPS(l, sc, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p.name = name
	p.hash = hashOps(p.ops)
	return p, nil
}

// storedSessions picks n users in seeded order and canonicalizes their
// capped positive profiles into sessions.
func storedSessions(l *lab, seed int64, n, cap int) ([]session, error) {
	users := append([]int64(nil), l.prefs.Users...)
	rngFor(seed, 1).Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	out := make([]session, 0, n)
	for _, uid := range users {
		if len(out) == n {
			break
		}
		canon, _ := combine.CanonicalProfile(capped(l.graph.PositiveProfile(uid), cap))
		if len(canon) == 0 {
			continue
		}
		body, err := json.Marshal(struct {
			Profile []serve.ProfileEntry `json:"profile"`
		}{wireProfile(canon)})
		if err != nil {
			return nil, err
		}
		out = append(out, session{id: "u" + strconv.FormatInt(uid, 10), prefs: canon, putBody: body})
	}
	if len(out) < n {
		return nil, fmt.Errorf("only %d of %d users have a usable profile", len(out), n)
	}
	return out, nil
}

func capped(p []hypre.ScoredPred, n int) []hypre.ScoredPred {
	if len(p) > n {
		return p[:n]
	}
	return p
}

func wireProfile(prefs []hypre.ScoredPred) []serve.ProfileEntry {
	out := make([]serve.ProfileEntry, len(prefs))
	for i, p := range prefs {
		out[i] = serve.ProfileEntry{Pred: p.Pred, Intensity: p.Intensity}
	}
	return out
}

func sessionQuery(sessions []session, i, k int) op {
	return op{
		kind:  opQuery,
		body:  []byte(fmt.Sprintf(`{"session":%q,"k":%d}`, sessions[i].id, k)),
		k:     k,
		sess:  i,
		prefs: sessions[i].prefs,
	}
}

// warmAll is one query per session.
func warmAll(sessions []session, k int) []op {
	out := make([]op, len(sessions))
	for i := range sessions {
		out[i] = sessionQuery(sessions, i, k)
	}
	return out
}

// sample draws n distinct indexes below limit.
func sample(rng *rand.Rand, n, limit int) []int {
	if n > limit {
		n = limit
	}
	return rng.Perm(limit)[:n]
}

func planHotRead(l *lab, sc scale, seed int64) (*plan, error) {
	sessions, err := storedSessions(l, seed, sc.hotSessions, sc.sessionCap)
	if err != nil {
		return nil, err
	}
	rng := rngFor(seed, 2)
	z := rand.NewZipf(rng, hotZipfS, 1, uint64(len(sessions)-1))
	// 64k draws cycle for as long as the window lasts; the cycle is far
	// longer than the session set, so wrapping does not change the mix.
	ops := make([]op, 1<<16)
	for i := range ops {
		ops[i] = sessionQuery(sessions, int(z.Uint64()), 10)
	}
	return &plan{
		http: true, cycle: true,
		sessions: sessions,
		warm:     warmAll(sessions, 10),
		ops:      ops,
		checks:   sample(rngFor(seed, 3), checkSamples, len(ops)),
	}, nil
}

func planColdRead(l *lab, sc scale, seed int64) (*plan, error) {
	// Candidates: every (user, cap) prefix of a full positive profile,
	// deduplicated by canonical fingerprint so that no two queries of a run
	// can share a cache entry.
	seen := make(map[combine.Fingerprint]bool)
	var ops []op
	for _, uid := range l.prefs.Users {
		full := l.graph.PositiveProfile(uid)
		for _, c := range coldCaps {
			prefs := capped(full, c)
			if len(prefs) == 0 {
				continue
			}
			fp := combine.ProfileFingerprint(prefs)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			wire := wireProfile(prefs)
			body, err := json.Marshal(struct {
				Profile []serve.ProfileEntry `json:"profile"`
				K       int                  `json:"k"`
			}{wire, 10})
			if err != nil {
				return nil, err
			}
			ops = append(ops, op{kind: opQuery, body: body, k: 10, sess: -1, wire: wire, prefs: prefs})
		}
	}
	rngFor(seed, 2).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	nWarm := sc.coldWarmBatch * sc.coldWarmMax
	if len(ops) < 2*nWarm {
		return nil, fmt.Errorf("only %d distinct profiles, need %d", len(ops), 2*nWarm)
	}
	return &plan{
		http:       true,
		cacheBytes: coldCacheBytes,
		warm:       ops[:nWarm],
		ops:        ops[nWarm:],
		checks:     sample(rngFor(seed, 3), checkSamples, len(ops)-nWarm),
	}, nil
}

// arrivals cuts [0, d) into n equal slots and places one arrival in each, at
// a seeded uniform offset inside its slot. The schedule never looks at the
// server (an open loop), every run offers exactly n operations, and the
// arrivals bunch less than a Poisson process of the same rate: with Poisson
// arrivals the tail of a 15s window was set by how they happened to cluster
// (p95 spread 23–34% over ten seeds against 11% paced).
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration((float64(i) + rng.Float64()) / float64(n) * float64(d))
	}
	return out
}

func planMixedRW(l *lab, sc scale, seed int64, seconds float64) (*plan, error) {
	sessions, err := storedSessions(l, seed, sc.mixedSessions, sc.sessionCap)
	if err != nil {
		return nil, err
	}
	window := time.Duration(seconds * float64(time.Second))
	nQ := int(math.Round(mixedQueryRate * seconds))
	nM := int(math.Round(mixedMutateRate * seconds))
	if nQ < 1 || nM < 1 {
		return nil, fmt.Errorf("a %.2fs window holds no arrivals", seconds)
	}

	rng := rngFor(seed, 2)
	z := rand.NewZipf(rng, mixedZipfS, mixedZipfV, uint64(len(sessions)-1))
	ops := make([]op, 0, nQ+nM)
	for _, at := range arrivals(rng, nQ, window) {
		k := 10
		if rng.Float64() < mixedBigKShare {
			k = 50
		}
		o := sessionQuery(sessions, int(z.Uint64()), k)
		o.at = at
		ops = append(ops, o)
	}

	cfg := workload.DefaultStreamConfig()
	cfg.Seed = seed
	stream, err := workload.NewUpdateStream(l.net, cfg)
	if err != nil {
		return nil, err
	}
	muts := stream.PlanPartitions(1, nM*mixedBatchOps)[0]
	for i, at := range arrivals(rngFor(seed, 4), nM, window) {
		batch := muts[i*mixedBatchOps : (i+1)*mixedBatchOps]
		body, err := json.Marshal(struct {
			Ops []workload.Op `json:"ops"`
		}{batch})
		if err != nil {
			return nil, err
		}
		ops = append(ops, op{kind: opMutate, at: at, body: body, sess: -1, muts: batch})
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })

	// The check re-queries sessions, not arrivals: the first checkSamples
	// query ops of a seeded permutation.
	var checks []int
	for _, i := range rngFor(seed, 3).Perm(len(ops)) {
		if len(checks) == checkSamples {
			break
		}
		if ops[i].kind == opQuery {
			checks = append(checks, i)
		}
	}
	return &plan{
		http: true, open: true,
		sessions: sessions,
		// Every batch empties the result cache, so the steady state is not
		// "all fingerprints cached" but "all predicate footprints known":
		// one evaluation per session registers them.
		warm:   warmAll(sessions, 10),
		ops:    ops,
		checks: checks,
	}, nil
}

func planPEPS(l *lab, sc scale, seed int64) (*plan, error) {
	users := append([]int64(nil), l.prefs.Users...)
	rngFor(seed, 1).Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	var profiles [][]hypre.ScoredPred
	for _, uid := range users {
		if len(profiles) == sc.pepsUsers {
			break
		}
		if p := l.graph.PositiveProfile(uid); len(p) >= sc.pepsMinPrefs {
			profiles = append(profiles, capped(p, sc.pepsCap))
		}
	}
	if len(profiles) < sc.pepsUsers {
		return nil, fmt.Errorf("only %d of %d users have %d positive preferences", len(profiles), sc.pepsUsers, sc.pepsMinPrefs)
	}
	// Two passes over the users so that each meets both k.
	ops := make([]op, 2*len(profiles))
	for i := range ops {
		k := 10
		if (i+i/len(profiles))%2 == 1 {
			k = 100
		}
		ops[i] = op{kind: opPEPS, k: k, sess: -1, prefs: profiles[i%len(profiles)]}
	}
	return &plan{
		cycle:  true,
		ops:    ops,
		checks: sample(rngFor(seed, 3), pepsChecks, len(ops)),
	}, nil
}

// hashOps fingerprints an op sequence: same (workload, seed, scale, seconds)
// must give the same hash, another seed another.
func hashOps(ops []op) string {
	h := fnv.New64a()
	var word [8]byte
	for i := range ops {
		o := &ops[i]
		binary.BigEndian.PutUint64(word[:], uint64(o.at))
		h.Write(word[:])
		h.Write([]byte{byte(o.kind), byte(o.k)})
		h.Write(o.body)
		if o.kind == opPEPS {
			for _, p := range o.prefs {
				h.Write([]byte(p.Pred))
				binary.BigEndian.PutUint64(word[:], math.Float64bits(p.Intensity))
				h.Write(word[:])
			}
		}
		h.Write([]byte{0x1e})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
