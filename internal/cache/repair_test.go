package cache_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hypre/internal/cache"
	"hypre/internal/combine"
	"hypre/internal/delta"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

// paperRow resolves a live paper's row id.
func paperRow(t testing.TB, net *workload.Network, pid int64) int {
	t.Helper()
	rows, err := net.DB.LookupRowIDs("dblp", "pid", predicate.Int(pid))
	if err != nil || len(rows) != 1 {
		t.Fatalf("pid %d: rows %v, err %v", pid, rows, err)
	}
	return rows[0]
}

// linkRows lists the live authorship link rows of a paper.
func linkRows(t testing.TB, net *workload.Network, pid int64) []int {
	t.Helper()
	rows, err := net.DB.LookupRowIDs("dblp_author", "pid", predicate.Int(pid))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// livePIDs lists every live paper's pid in row order.
func livePIDs(net *workload.Network) []int64 {
	dblp := net.DB.Table("dblp")
	var out []int64
	for row := 0; row < dblp.Len(); row++ {
		if dblp.Alive(row) {
			out = append(out, dblp.Value(row, "pid").AsInt())
		}
	}
	return out
}

func insertPaper(t testing.TB, net *workload.Network, pid int64, venue string, year int64, aids []int64) {
	t.Helper()
	if _, err := net.DB.Table("dblp").Insert(predicate.Int(pid), predicate.String("t"),
		predicate.String(venue), predicate.Int(year), predicate.String("a")); err != nil {
		t.Fatal(err)
	}
	for _, aid := range aids {
		if _, err := net.DB.Table("dblp_author").Insert(predicate.Int(pid), predicate.Int(aid)); err != nil {
			t.Fatal(err)
		}
	}
}

// paper is what insertPaper needs to bring a deleted paper back.
type paper struct {
	pid   int64
	venue string
	year  int64
	aids  []int64
}

// paperOf reads a live paper's venue, year and authors.
func paperOf(t testing.TB, net *workload.Network, pid int64) paper {
	t.Helper()
	dblp, links := net.DB.Table("dblp"), net.DB.Table("dblp_author")
	row := paperRow(t, net, pid)
	p := paper{pid: pid, venue: dblp.Value(row, "venue").AsString(), year: dblp.Value(row, "year").AsInt()}
	for _, lr := range linkRows(t, net, pid) {
		p.aids = append(p.aids, links.Value(lr, "aid").AsInt())
	}
	return p
}

// clonePaper inserts a paper under newPID with pid's venue, year and
// authors, so every profile grades the two alike.
func clonePaper(t testing.TB, net *workload.Network, pid, newPID int64) {
	t.Helper()
	p := paperOf(t, net, pid)
	insertPaper(t, net, newPID, p.venue, p.year, p.aids)
}

// dropPaper deletes a paper and its authorship links.
func dropPaper(t testing.TB, net *workload.Network, pid int64) {
	t.Helper()
	links := linkRows(t, net, pid)
	net.DB.Table("dblp").Delete(paperRow(t, net, pid))
	for _, lr := range links {
		net.DB.Table("dblp_author").Delete(lr)
	}
}

// oracleProfiles draws profiles whose answers tie and overlap: venue, year
// and author predicates at a few shared intensity levels, with zero- and
// negative-intensity preferences mixed in and author-only profiles sparse
// enough that k exceeds their match count.
func oracleProfiles(t testing.TB, net *workload.Network, rng *rand.Rand) [][]hypre.ScoredPred {
	levels := []float64{0.2, 0.5, 0.8}
	venue := func() string { return fmt.Sprintf("dblp.venue=%q", net.Venues[rng.Intn(len(net.Venues))]) }
	year := func() string {
		return fmt.Sprintf("dblp.year=%d", net.Cfg.MinYear+rng.Intn(net.Cfg.MaxYear-net.Cfg.MinYear+1))
	}
	author := func() string { return fmt.Sprintf("dblp_author.aid=%d", rng.Intn(len(net.Authors))) }
	level := func() float64 { return levels[rng.Intn(len(levels))] }
	var pool [][]hypre.ScoredPred
	for i := 0; i < 12; i++ {
		var prof []hypre.ScoredPred
		switch i % 4 {
		case 0: // venues only: every grade ties within a venue
			prof = append(prof, sp(t, venue(), level()), sp(t, venue(), level()))
		case 1: // a zero-intensity year beside a venue and an author
			prof = append(prof, sp(t, venue(), level()), sp(t, year(), 0), sp(t, author(), level()))
		case 2: // authors only: a handful of matches
			prof = append(prof, sp(t, author(), level()), sp(t, author(), level()), sp(t, author(), 0))
		case 3: // a negative venue, two years folding into one slot
			prof = append(prof, sp(t, venue(), -0.4), sp(t, year(), level()), sp(t, year(), level()), sp(t, author(), level()))
		}
		pool = append(pool, prof)
	}
	return pool
}

type oracleKey struct {
	prof []hypre.ScoredPred
	k    int
}

// TestRepairOracleAdversarial aims mutation batches at cached answers —
// deleting a member, moving a member's venue away, inserting a paper that
// ties the k-th grade with a pid below and above the k-th pid, and churning
// members' authorship links — and after every Sync requires every resident
// entry to equal an uncached evaluation byte for byte, and every entry
// whose answer held to stay resident. The compacting variant also deletes
// enough filler papers that compactions fire between syncs; the entries
// those Syncs touch must be repaired, not dropped.
func TestRepairOracleAdversarial(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		compact bool
	}{{"seed=5", 5, false}, {"seed=6", 6, false}, {"compacting", 7, true}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := workload.DefaultConfig()
			cfg.Seed = tc.seed
			cfg.NumPapers, cfg.NumAuthors, cfg.NumVenues = 600, 150, 12
			var opts []relstore.DBOption
			var sc relstore.StoreCounters
			if tc.compact {
				cfg.NumPapers = 1500 // past one block, so compaction is eligible
				opts = append(opts, relstore.WithCompaction(0.04), relstore.WithStoreCounters(&sc))
			}
			net, err := workload.GenerateWith(cfg, opts...)
			if err != nil {
				t.Fatal(err)
			}
			srv, ev := newServer(t, net)
			m, err := delta.NewMaintainer(ev, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.AttachCache(srv)

			rng := rand.New(rand.NewSource(tc.seed))
			var keys []oracleKey
			for _, prof := range oracleProfiles(t, net, rng) {
				for _, k := range []int{3, 10, 1000} {
					keys = append(keys, oracleKey{prof, k})
				}
			}
			askAll := func(tag string) {
				for i, key := range keys {
					got, _, err := srv.TopKTraced(key.prof, key.k, nil)
					if err != nil {
						t.Fatal(err)
					}
					if want := uncached(t, net, key.prof, key.k); !sameRanking(got, want) {
						t.Fatalf("%s: key %d (k=%d) served %v, want %v", tag, i, key.k, got, want)
					}
				}
			}
			askAll("warm-up")

			lowPID, highPID := int64(-1), int64(1<<30)
			var compactRepaired int64
			var reinsert []paper
			for round := 0; round < 36; round++ {
				var target oracleKey
				var members []combine.ScoredTuple
				for try := 0; try < 20 && len(members) == 0; try++ {
					target = keys[rng.Intn(len(keys))]
					members = uncached(t, net, target.prof, target.k)
				}
				if len(members) == 0 {
					t.Fatalf("round %d: no non-empty answer to aim at", round)
				}
				member := members[rng.Intn(len(members))].PID
				last := members[len(members)-1].PID
				op := round % 6
				switch op {
				case 0: // delete a member
					if tc.compact {
						reinsert = append(reinsert, paperOf(t, net, member))
					}
					dropPaper(t, net, member)
				case 1: // move a member's venue away
					row := paperRow(t, net, member)
					dblp := net.DB.Table("dblp")
					cur := dblp.Value(row, "venue").AsString()
					to := net.Venues[rng.Intn(len(net.Venues))]
					for to == cur {
						to = net.Venues[rng.Intn(len(net.Venues))]
					}
					if err := dblp.UpdateCol(row, "venue", predicate.String(to)); err != nil {
						t.Fatal(err)
					}
				case 2: // tie the k-th grade with a pid below the k-th pid
					clonePaper(t, net, last, lowPID)
					lowPID--
				case 3: // tie the k-th grade with a pid above the k-th pid
					clonePaper(t, net, last, highPID)
					highPID++
				case 4: // authorship churn on members' authors
					if lr := linkRows(t, net, member); len(lr) > 0 {
						net.DB.Table("dblp_author").Delete(lr[rng.Intn(len(lr))])
					}
					other := members[rng.Intn(len(members))].PID
					aid := int64(rng.Intn(len(net.Authors)))
					if lr := linkRows(t, net, last); len(lr) > 0 {
						aid = net.DB.Table("dblp_author").Value(lr[0], "aid").AsInt()
					}
					if _, err := net.DB.Table("dblp_author").Insert(predicate.Int(other), predicate.Int(aid)); err != nil {
						t.Fatal(err)
					}
				case 5: // background: a year rewrite and a fresh paper
					live := livePIDs(net)
					row := paperRow(t, net, live[rng.Intn(len(live))])
					year := int64(net.Cfg.MinYear + rng.Intn(net.Cfg.MaxYear-net.Cfg.MinYear+1))
					if err := net.DB.Table("dblp").UpdateCol(row, "year", predicate.Int(year)); err != nil {
						t.Fatal(err)
					}
					insertPaper(t, net, highPID, net.Venues[rng.Intn(len(net.Venues))], year,
						[]int64{int64(rng.Intn(len(net.Authors)))})
					highPID++
				}
				if tc.compact {
					// A member deleted in an earlier round comes back under
					// its pid; the compactions below then drop its old row
					// while the new one lives.
					if n := len(reinsert); n > 0 && op != 0 {
						p := reinsert[n-1]
						insertPaper(t, net, p.pid, p.venue, p.year, p.aids)
						reinsert = reinsert[:n-1]
					}
					live := livePIDs(net)
					for i := 0; i < 10; i++ {
						dropPaper(t, net, live[rng.Intn(len(live))])
						live = livePIDs(net)
					}
				}
				before := map[int][]combine.ScoredTuple{}
				for i, key := range keys {
					if got, ok := srv.Peek(key.prof, key.k); ok {
						before[i] = got
					}
				}
				repaired0 := srv.Counters().Snapshot().Repaired
				st, err := m.Sync()
				if err != nil {
					t.Fatal(err)
				}
				if st.Compactions > 0 {
					compactRepaired += srv.Counters().Snapshot().Repaired - repaired0
				}

				tag := fmt.Sprintf("round %d op %d", round, op)
				// The repair keeps every entry whose answer held, compaction
				// or not: only a lost member with nothing proven to replace
				// it drops one.
				for i, old := range before {
					if _, ok := srv.Peek(keys[i].prof, keys[i].k); !ok && sameRanking(old, uncached(t, net, keys[i].prof, keys[i].k)) {
						t.Fatalf("%s: key %d (k=%d) dropped though its answer held (%d compactions)", tag, i, keys[i].k, st.Compactions)
					}
				}
				resident := 0
				for i, key := range keys {
					got, ok := srv.Peek(key.prof, key.k)
					if !ok {
						continue
					}
					resident++
					if want := uncached(t, net, key.prof, key.k); !sameRanking(got, want) {
						t.Fatalf("%s: resident key %d (k=%d) holds %v, want %v", tag, i, key.k, got, want)
					}
				}
				if n, _ := srv.Cache().Stats(); n != resident {
					t.Fatalf("%s: %d resident entries, %d of them checked", tag, n, resident)
				}
				askAll(tag)
			}

			snap := srv.Counters().Snapshot()
			t.Logf("repaired %d, invalidated %d, hits %d, misses %d, compactions %d",
				snap.Repaired, snap.Invalidated, snap.Hits, snap.Misses, sc.Compactions.Load())
			if snap.Repaired == 0 || snap.Invalidated == 0 {
				t.Fatalf("Repaired %d, Invalidated %d: both branches must run", snap.Repaired, snap.Invalidated)
			}
			if tc.compact && sc.Compactions.Load() == 0 {
				t.Fatalf("no compaction fired; the compacting variant is vacuous")
			}
			if tc.compact && compactRepaired == 0 {
				t.Fatalf("no entry was repaired by a Sync that absorbed a compaction")
			}
		})
	}
}

// TestServerReadersVsRepairSwap: readers hit cached entries while Syncs
// swap repaired copies of those same entries in — the -race proof that a
// repair never writes an entry a reader may hold. Each batch clones a
// member so that it ties the top grade under a smaller pid, which changes
// every answer holding that member. Readers check the shape of whatever
// they are served; after the churn every answer equals uncached evaluation.
func TestServerReadersVsRepairSwap(t *testing.T) {
	net := testNet(t, 31)
	srv, ev := newServer(t, net)
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)
	var pool [][]hypre.ScoredPred
	for i := 0; i < 4; i++ {
		pool = append(pool, venueProfile(t, net, []int{i, i + 4}, 1995+i))
	}
	for _, p := range pool {
		if _, _, err := srv.TopKTraced(p, 10, nil); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				got, _, err := srv.TopKTraced(pool[i%len(pool)], 10, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(got); j++ {
					if !topk.Outranks(got[j-1], got[j]) {
						t.Errorf("served answer out of rank order: %v", got)
						return
					}
				}
			}
		}(w)
	}
	for batch := 0; batch < 12; batch++ {
		top, ok := srv.Peek(pool[batch%len(pool)], 10)
		if !ok {
			if top, _, err = srv.TopKTraced(pool[batch%len(pool)], 10, nil); err != nil {
				t.Fatal(err)
			}
		}
		clonePaper(t, net, top[0].PID, int64(-1-batch))
		if _, err := m.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	for i, p := range pool {
		got, _, err := srv.TopKTraced(p, 10, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := uncached(t, net, p, 10); !sameRanking(got, want) {
			t.Fatalf("profile %d: post-churn answer diverged from the store", i)
		}
	}
	if snap := srv.Counters().Snapshot(); snap.Repaired < 12 || snap.Hits == 0 {
		t.Fatalf("Repaired %d, Hits %d: the readers never raced a swap", snap.Repaired, snap.Hits)
	}
}

// TestServerFreshPredicatesVsSync: misses on never-seen predicates race
// mutate+Sync, so materializations of the evaluator's predicate store
// interleave with its refreshes. Every fresh predicate matches exactly
// venue A's papers. While readers ask fresh profiles, each round runs
// several mutate+Sync steps, each flipping one of ten papers between
// venues A and B, so each paper flips every tenth step. A bitmap scanned
// before a flip but stored after the refresh that re-matched it hides that
// flip until the paper flips back, and every entry published over it in
// between then misses the flip back, which moves no other row. After every round every resident
// entry must equal uncached evaluation, which depends only on the
// profile's year and k.
func TestServerFreshPredicatesVsSync(t *testing.T) {
	const rounds, syncs, readers, asks, years = 30, 10, 2, 2, 5
	net := testNet(t, 41)
	srv, ev := newServer(t, net)
	m, err := delta.NewMaintainer(ev, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachCache(srv)
	venueA, venueB := net.Venues[0], net.Venues[1]
	// The never-matching alternatives make each fresh predicate distinct,
	// and slow enough to scan that a scan often straddles a commit.
	profile := func(fresh string, y int) []hypre.ScoredPred {
		pred := fmt.Sprintf("dblp.venue=%q", venueA)
		for i := 0; i < 8; i++ {
			pred += fmt.Sprintf(" OR dblp.venue=\"%s-%d\"", fresh, i)
		}
		return []hypre.ScoredPred{sp(t, pred, 0.8), sp(t, fmt.Sprintf("dblp.year=%d", net.Cfg.MinYear+y), 0.3)}
	}
	ks := []int{3, 1000}
	var flip []int
	dblp := net.DB.Table("dblp")
	for row := 0; row < dblp.Len() && len(flip) < 10; row++ {
		if dblp.Value(row, "venue").AsString() == venueA {
			flip = append(flip, row)
		}
	}

	type askKey struct {
		prof    []hypre.ScoredPred
		year, k int
	}
	var mu sync.Mutex
	var keys []askKey
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < readers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for n := 0; n < asks; n++ {
					y := (round + n) % years
					prof := profile(fmt.Sprintf("fresh-%d-%d-%d", round, w, n), y)
					for _, k := range ks {
						// A stale bypass materializes nothing and a publish
						// a commit overtook caches nothing: ask until the
						// answer is served from the cache.
						for out := cache.Miss; out != cache.Hit; {
							var err error
							if _, out, err = srv.TopKTraced(prof, k, nil); err != nil {
								t.Error(err)
								return
							}
						}
						mu.Lock()
						keys = append(keys, askKey{prof, y, k})
						mu.Unlock()
					}
				}
			}(w)
		}
		for step := round * syncs; step < (round+1)*syncs; step++ {
			row := flip[step%len(flip)]
			to := venueA
			if dblp.Value(row, "venue").AsString() == venueA {
				to = venueB
			}
			if err := dblp.UpdateCol(row, "venue", predicate.String(to)); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		want := map[[2]int][]combine.ScoredTuple{}
		for y := 0; y < years; y++ {
			for _, k := range ks {
				want[[2]int{y, k}] = uncached(t, net, profile("fresh-ref", y), k)
			}
		}
		for i, key := range keys {
			if got, ok := srv.Peek(key.prof, key.k); ok && !sameRanking(got, want[[2]int{key.year, key.k}]) {
				t.Fatalf("round %d: resident key %d (k=%d) holds %d tuples, want %d", round, i, key.k, len(got), len(want[[2]int{key.year, key.k}]))
			}
		}
	}
	if snap := srv.Counters().Snapshot(); snap.FootprintScans <= years || snap.Repaired == 0 {
		t.Fatalf("FootprintScans %d, Repaired %d: the race never ran", snap.FootprintScans, snap.Repaired)
	}
}
