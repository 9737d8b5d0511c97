package relstore

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hypre/internal/predicate"
)

// This file is the randomized property suite for the write path: the
// key-addressed Batch API and its one-hold commit (multi-table holds,
// compaction inside the hold). The concurrency properties are meant to run
// under -race: the writers genuinely overlap, so the suite doubles as a
// data-race check over the commit's lock discipline.

// logicalState serializes a table's live rows by value, sorted — the
// row-order- and row-id-agnostic comparison key for stores that applied the
// same logical ops through different write paths (or compacted at different
// times).
func logicalState(t *testing.T, db *DB, table string, cols []string) []string {
	t.Helper()
	tab := db.Table(table)
	if tab == nil {
		t.Fatalf("no table %q", table)
	}
	var out []string
	for id := 0; id < tab.Len(); id++ {
		if !tab.Alive(id) {
			continue
		}
		s := ""
		for _, c := range cols {
			s += tab.Value(id, c).Key() + "|"
		}
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// streamTables creates the two-table paper/link schema both twins use.
func streamTables(t *testing.T, db *DB) {
	t.Helper()
	if _, err := db.CreateTable("papers",
		Column{Name: "pid", Kind: predicate.KindInt},
		Column{Name: "score", Kind: predicate.KindInt},
	); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("links",
		Column{Name: "pid", Kind: predicate.KindInt},
		Column{Name: "ref", Kind: predicate.KindInt},
	); err != nil {
		t.Fatal(err)
	}
}

// planStreamOps builds one writer's op list over its own key partition
// (writer w owns pids congruent to w): ops on disjoint keys commute, so the
// concurrently written store and the serially applied twin must converge
// to the same logical state no matter how the commits interleave. Every op is a Batch — single-table or paper+links multi-table —
// so the suite exercises the key-addressed staging API end to end.
func planStreamOps(rng *rand.Rand, w, writers, ops int) []func(db *DB) error {
	owned := []int64{}
	for p := int64(w); len(owned) < 6; p += int64(writers) {
		owned = append(owned, p) // seeded pids this writer may touch
	}
	next := int64(2048 + w) // above any seeded pid, still in w's partition
	plan := make([]func(db *DB) error, 0, ops)
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0: // multi-table insert: a paper with 1-2 links
			pid := next
			next += int64(writers)
			owned = append(owned, pid)
			links := 1 + rng.Intn(2)
			score := int64(rng.Intn(100))
			refs := []int64{int64(rng.Intn(50)), int64(rng.Intn(50))}
			plan = append(plan, func(db *DB) error {
				b := db.NewBatch().Insert("papers", predicate.Int(pid), predicate.Int(score))
				for l := 0; l < links; l++ {
					b.Insert("links", predicate.Int(pid), predicate.Int(refs[l]))
				}
				return b.Commit()
			})
		case 1: // multi-table delete: a paper and all its links
			pid := owned[rng.Intn(len(owned))]
			plan = append(plan, func(db *DB) error {
				return db.NewBatch().
					DeleteOneByKey("papers", "pid", predicate.Int(pid)).
					DeleteByKey("links", "pid", predicate.Int(pid)).
					Commit()
			})
		case 2: // re-score one paper by key
			pid := owned[rng.Intn(len(owned))]
			score := int64(rng.Intn(100))
			plan = append(plan, func(db *DB) error {
				return db.NewBatch().
					UpdateColByKey("papers", "pid", predicate.Int(pid), "score", predicate.Int(score)).
					Commit()
			})
		default: // link churn only
			pid := owned[rng.Intn(len(owned))]
			ref := int64(rng.Intn(50))
			plan = append(plan, func(db *DB) error {
				return db.NewBatch().
					Insert("links", predicate.Int(pid), predicate.Int(ref)).
					Commit()
			})
		}
	}
	return plan
}

// TestConcurrentBatchesMatchSerialRandomized: concurrent key-partitioned
// batch writers (with compaction enabled, so multi-table holds and row-id
// remaps both fire) must leave the same logical state as the same ops
// applied one by one on a serial, never-compacting twin.
func TestConcurrentBatchesMatchSerialRandomized(t *testing.T) {
	// Seeding must clear one full block (1024 rows): compaction only
	// considers tables at least a block long, and the suite wants real
	// row-id remaps in flight, not just an armed-but-idle threshold.
	const writers, opsPerWriter, seeded = 8, 60, 1100
	for seed := int64(40); seed < 44; seed++ {
		var sc StoreCounters
		conc := NewDB(WithCompaction(0.05), WithStoreCounters(&sc))
		serial := NewDB()
		streamTables(t, conc)
		streamTables(t, serial)
		for _, db := range []*DB{conc, serial} {
			for p := int64(0); p < seeded; p++ {
				if _, err := db.Table("papers").Insert(predicate.Int(p), predicate.Int(p%7)); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Table("links").Insert(predicate.Int(p), predicate.Int(p%11)); err != nil {
					t.Fatal(err)
				}
			}
		}

		plans := make([][]func(db *DB) error, writers)
		for w := range plans {
			plans[w] = planStreamOps(rand.New(rand.NewSource(seed*1000+int64(w))), w, writers, opsPerWriter)
		}

		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := range plans {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, op := range plans[w] {
					if err := op(conc); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("seed %d writer %d: %v", seed, w, err)
			}
		}
		for _, plan := range plans {
			for _, op := range plan {
				if err := op(serial); err != nil {
					t.Fatal(err)
				}
			}
		}

		for _, tc := range []struct {
			table string
			cols  []string
		}{
			{"papers", []string{"pid", "score"}},
			{"links", []string{"pid", "ref"}},
		} {
			c := logicalState(t, conc, tc.table, tc.cols)
			s := logicalState(t, serial, tc.table, tc.cols)
			if !eqStrings(c, s) {
				t.Fatalf("seed %d: %s diverged: concurrent %d rows, serial %d rows",
					seed, tc.table, len(c), len(s))
			}
		}
		if sc.Compactions.Load() == 0 {
			t.Fatalf("seed %d: compaction never fired; the remap axis is untested", seed)
		}
	}
}

// TestBatchStagingErrorAppliesNothing: a batch holding a staging error
// (unknown table, unknown column, arity mismatch) must report it from
// Commit without applying any staged mutation — including the valid ones
// staged before the error.
func TestBatchStagingErrorAppliesNothing(t *testing.T) {
	db := NewDB()
	streamTables(t, db)
	if _, err := db.Table("papers").Insert(predicate.Int(1), predicate.Int(10)); err != nil {
		t.Fatal(err)
	}
	before := db.Table("papers").Live()
	cases := []*Batch{
		db.NewBatch().Insert("papers", predicate.Int(2), predicate.Int(20)).Insert("nope", predicate.Int(3)),
		db.NewBatch().Insert("papers", predicate.Int(2)), // arity
		db.NewBatch().UpdateColByKey("papers", "pid", predicate.Int(1), "zz", predicate.Int(0)),
		db.NewBatch().DeleteByKey("papers", "zz", predicate.Int(1)),
	}
	for i, b := range cases {
		if err := b.Commit(); err == nil {
			t.Fatalf("case %d: staged error not reported", i)
		}
	}
	if got := db.Table("papers").Live(); got != before {
		t.Fatalf("failed batches mutated the store: %d live rows, want %d", got, before)
	}
}

// TestBatchMultiTableEffects: one batch's staged mutations across two
// tables all land, each touched table moves exactly one epoch per commit,
// and zero-match key addressing is benign.
func TestBatchMultiTableEffects(t *testing.T) {
	db := NewDB()
	streamTables(t, db)
	err := db.NewBatch().
		Insert("papers", predicate.Int(7), predicate.Int(70)).
		Insert("links", predicate.Int(7), predicate.Int(1)).
		Insert("links", predicate.Int(7), predicate.Int(2)).
		DeleteByKey("papers", "pid", predicate.Int(999)). // no match: benign
		Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Table("papers").Live(); got != 1 {
		t.Fatalf("papers live = %d, want 1", got)
	}
	if got := db.Table("links").Live(); got != 2 {
		t.Fatalf("links live = %d, want 2", got)
	}
	if e := db.EpochStamp("papers", "links"); e != 2 {
		t.Fatalf("epoch stamp after one two-table commit = %d, want 2", e)
	}
	err = db.NewBatch().
		UpdateColByKey("papers", "pid", predicate.Int(7), "score", predicate.Int(71)).
		DeleteByKey("links", "pid", predicate.Int(7)).
		Commit()
	if err != nil {
		t.Fatal(err)
	}
	if v := db.Table("papers").Value(0, "score").AsInt(); v != 71 {
		t.Fatalf("score = %d, want 71", v)
	}
	if got := db.Table("links").Live(); got != 0 {
		t.Fatalf("links live = %d, want 0", got)
	}
}
