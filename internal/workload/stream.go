package workload

import (
	"fmt"
	"math/rand"

	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// This file plans the update workload: UpdateStream's seeded op mix,
// pre-planned into pid-keyed Op values that concurrent writers can execute
// against the store. Two properties make the plans concurrency- and
// compaction-proof:
//
//   - Ops name rows by pid, never by row id; a staged op resolves the
//     current row through the store's hash index at commit time, so a plan stays
//     valid across tombstone compactions that renumber every row.
//   - PlanPartitions hands each writer a pid-disjoint slice of the live
//     set (and a private fresh-pid namespace), so any interleaving of the
//     writers reaches the same final logical state. bench/'s mixed-rw
//     workload plans its mutate batches through it (one writer).

// OpKind tags one planned mutation.
type OpKind uint8

const (
	// OpInsert adds a paper with its authorship links.
	OpInsert OpKind = iota
	// OpDelete removes a paper and its links.
	OpDelete
	// OpUpdateVenue rewrites the paper's venue in place.
	OpUpdateVenue
	// OpUpdateYear rewrites the paper's year in place.
	OpUpdateYear
	// OpLinkAdd inserts one authorship link.
	OpLinkAdd
	// OpLinkDel deletes one of the paper's authorship links.
	OpLinkDel
)

// Op is one pre-planned mutation against the DBLP pair of tables, keyed by
// pid. Fields beyond PID are populated per kind. The JSON form (kind as its
// lowercase name, see opjson.go) is the wire format of the serving tier's
// /v1/mutate batches.
type Op struct {
	Kind    OpKind  `json:"kind"`
	PID     int64   `json:"pid"`
	Venue   string  `json:"venue,omitempty"`
	Year    int64   `json:"year,omitempty"`
	Authors []int64 `json:"authors,omitempty"` // OpInsert: initial links; OpLinkAdd: Authors[0]
}

// Do executes the op against the store as its own commit: Stage into a
// fresh batch, then Commit.
func (op Op) Do(db *relstore.DB) error {
	b := db.NewBatch()
	op.Stage(b)
	return b.Commit()
}

// Stage adds the op's key-addressed mutations to b (relstore.Batch): a
// paper insert with its links, a paper delete with its link teardown. They
// commit with everything else staged in b as one atomic unit, and each key
// resolves through the store's hash index inside the commit's critical
// section. An op is therefore a pure write-path call with no shared-lock
// read preamble and stays valid across tombstone compactions that renumber
// every row. A target pid that is no longer live degrades to a no-op (zero
// rows matched) rather than an error. An OpLinkAdd must carry its author
// (Authors[0] is read unchecked): the planners always set it, and
// internal/serve rejects arrived ops that do not before staging them.
func (op Op) Stage(b *relstore.Batch) {
	pid := predicate.Int(op.PID)
	switch op.Kind {
	case OpInsert:
		title := fmt.Sprintf("Paper %d on %s topics", op.PID, op.Venue)
		abstract := fmt.Sprintf("Abstract of paper %d.", op.PID)
		b.Insert("dblp", pid, predicate.String(title),
			predicate.String(op.Venue), predicate.Int(op.Year), predicate.String(abstract))
		for _, aid := range op.Authors {
			b.Insert("dblp_author", pid, predicate.Int(aid))
		}
	case OpDelete:
		b.DeleteByKey("dblp", "pid", pid)
		b.DeleteByKey("dblp_author", "pid", pid)
	case OpUpdateVenue:
		b.UpdateColByKey("dblp", "pid", pid, "venue", predicate.String(op.Venue))
	case OpUpdateYear:
		b.UpdateColByKey("dblp", "pid", pid, "year", predicate.Int(op.Year))
	case OpLinkAdd:
		b.Insert("dblp_author", pid, predicate.Int(op.Authors[0]))
	case OpLinkDel:
		b.DeleteOneByKey("dblp_author", "pid", pid)
	}
}

// PlanPartitions pre-plans writers×perWriter ops with the stream's mix and
// seed: the current live pid set is dealt round-robin across the writers,
// each writer draws from a derived RNG and allocates fresh pids in a
// stride-writers namespace, and every op targets only pids its own writer
// owns. The plans are pure — nothing is mutated until Do — so the same
// plan can be executed against twin stores (concurrent vs serial writers)
// and compared for equivalence.
func (s *UpdateStream) PlanPartitions(writers, perWriter int) [][]Op {
	owned := make([][]int64, writers)
	for i, pid := range s.pids {
		w := i % writers
		owned[w] = append(owned[w], pid)
	}
	plans := make([][]Op, writers)
	for w := 0; w < writers; w++ {
		plans[w] = s.planOne(w, writers, perWriter, owned[w])
	}
	return plans
}

// planOne generates one writer's op list over its owned pid set.
func (s *UpdateStream) planOne(w, writers, n int, owned []int64) []Op {
	rng := rand.New(rand.NewSource(s.cfg.Seed*1_000_003 + int64(w)))
	next := s.next + int64(w) // fresh pids: next + w + k*writers
	c := s.cfg
	ops := make([]Op, 0, n)
	newPaper := func() Op {
		pid := next
		next += int64(writers)
		venue := s.net.Venues[rng.Intn(len(s.net.Venues))]
		year := s.net.Cfg.MinYear + rng.Intn(s.net.Cfg.MaxYear-s.net.Cfg.MinYear+1)
		nAuth := 1 + rng.Intn(3)
		authors := make([]int64, 0, nAuth)
		seen := map[int64]bool{}
		for a := 0; a < nAuth; a++ {
			aid := int64(rng.Intn(len(s.net.Authors)))
			if !seen[aid] {
				seen[aid] = true
				authors = append(authors, aid)
			}
		}
		owned = append(owned, pid)
		return Op{Kind: OpInsert, PID: pid, Venue: venue, Year: int64(year), Authors: authors}
	}
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < c.InsertFrac || len(owned) == 0:
			ops = append(ops, newPaper())
		case r < c.InsertFrac+c.DeleteFrac:
			j := rng.Intn(len(owned))
			pid := owned[j]
			owned[j] = owned[len(owned)-1]
			owned = owned[:len(owned)-1]
			ops = append(ops, Op{Kind: OpDelete, PID: pid})
		case r < c.InsertFrac+c.DeleteFrac+c.LinkFrac:
			pid := owned[rng.Intn(len(owned))]
			if rng.Float64() < 0.5 {
				aid := int64(rng.Intn(len(s.net.Authors)))
				ops = append(ops, Op{Kind: OpLinkAdd, PID: pid, Authors: []int64{aid}})
			} else {
				ops = append(ops, Op{Kind: OpLinkDel, PID: pid})
			}
		default:
			pid := owned[rng.Intn(len(owned))]
			if rng.Float64() < 0.5 {
				venue := s.net.Venues[rng.Intn(len(s.net.Venues))]
				ops = append(ops, Op{Kind: OpUpdateVenue, PID: pid, Venue: venue})
			} else {
				year := s.net.Cfg.MinYear + rng.Intn(s.net.Cfg.MaxYear-s.net.Cfg.MinYear+1)
				ops = append(ops, Op{Kind: OpUpdateYear, PID: pid, Year: int64(year)})
			}
		}
	}
	return ops
}
