package workload

import (
	"fmt"
	"math/rand"

	"hypre/internal/predicate"
)

// This file generates the online-mutation workload: a seeded stream of
// paper inserts, deletes, attribute updates, and authorship-link churn over
// the synthetic DBLP network — the write traffic the delta and cache suites
// and bench/'s mixed-rw workload replay against the mutable store.

// StreamConfig controls the op mix of an update stream. The four fractions
// should sum to at most 1; any remainder falls to attribute updates.
type StreamConfig struct {
	Seed int64
	// InsertFrac inserts a new paper (with 1–3 authorship links).
	InsertFrac float64
	// DeleteFrac deletes a random live paper and its authorship links.
	DeleteFrac float64
	// UpdateFrac rewrites a random live paper's venue or year in place.
	UpdateFrac float64
	// LinkFrac inserts or deletes a single dblp_author link (authorship
	// churn without touching the papers table).
	LinkFrac float64
}

// DefaultStreamConfig is the mix bench/'s mixed-rw workload uses: mostly
// in-place updates, with enough inserts/deletes/link churn to exercise
// every delta path.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		Seed:       7,
		InsertFrac: 0.20,
		DeleteFrac: 0.15,
		UpdateFrac: 0.45,
		LinkFrac:   0.20,
	}
}

// UpdateStream applies a deterministic, seeded mutation mix to a network's
// store. It tracks the live paper set itself, so ops always target valid
// rows; on a compaction-enabled store it reindexes that snapshot through
// every published row-id remap before each op, so its row-addressed
// deletes and updates stay valid while the store compacts under it.
type UpdateStream struct {
	net  *Network
	cfg  StreamConfig
	rng  *rand.Rand
	next int64 // next fresh pid

	// alive papers: parallel row-id / pid views of the live set.
	rows []int
	pids []int64

	// compEpoch is the newest dblp compaction epoch already reflected in
	// rows (remaps up to it are absorbed; newer ones pend).
	compEpoch uint64

	// Counters by op kind, for reporting.
	Inserts, Deletes, Updates, LinkOps int
}

// NewUpdateStream builds a stream over the network's store, snapshotting
// the current live paper set.
func NewUpdateStream(net *Network, cfg StreamConfig) (*UpdateStream, error) {
	dblp := net.DB.Table("dblp")
	if dblp == nil {
		return nil, fmt.Errorf("workload: network store has no dblp table")
	}
	s := &UpdateStream{net: net, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	// The live-set snapshot below is in the store's current id space:
	// remaps already published are baked in, so only ones committed after
	// the current epoch apply.
	s.compEpoch = dblp.Epoch()
	for id := 0; id < dblp.Len(); id++ {
		if !dblp.Alive(id) {
			continue
		}
		pid := dblp.Value(id, "pid").AsInt()
		s.rows = append(s.rows, id)
		s.pids = append(s.pids, pid)
		if pid >= s.next {
			s.next = pid + 1
		}
	}
	return s, nil
}

// Apply runs n ops against the store and reports how many actually mutated
// something (a delete drawn on an empty live set degrades to an insert, so
// in practice every op lands).
func (s *UpdateStream) Apply(n int) (applied int, err error) {
	for i := 0; i < n; i++ {
		if err := s.absorbCompactions(); err != nil {
			return applied, err
		}
		var did bool
		r := s.rng.Float64()
		c := s.cfg
		switch {
		case r < c.InsertFrac:
			did, err = s.insertPaper()
		case r < c.InsertFrac+c.DeleteFrac:
			did, err = s.deletePaper()
		case r < c.InsertFrac+c.DeleteFrac+c.LinkFrac:
			did, err = s.linkChurn()
		default:
			did, err = s.updatePaper()
		}
		if err != nil {
			return applied, err
		}
		if did {
			applied++
		}
	}
	return applied, nil
}

// absorbCompactions reindexes the live-row snapshot through every row-id
// remap the store published since the last op. It runs before each op, so
// at most one dblp compaction can pend (only a delete's commit can cross
// the dead-row threshold, and an op deletes at most one paper) and every
// tracked row is in the pre-remap id space. Rows the stream tracks are
// live by construction, so a remap that drops one is a corruption worth
// failing loudly over. dblp_author needs nothing: link rows are looked up
// by key at use time.
func (s *UpdateStream) absorbCompactions() error {
	dblp := s.net.DB.Table("dblp")
	comps, ok := dblp.CompactionsSince(s.compEpoch)
	if !ok {
		return fmt.Errorf("workload: dblp compaction history evicted under the stream")
	}
	for _, c := range comps {
		for i, row := range s.rows {
			if row >= len(c.Remap) {
				return fmt.Errorf("workload: tracked row %d outside remap domain %d", row, len(c.Remap))
			}
			nw := c.Remap[row]
			if nw < 0 {
				return fmt.Errorf("workload: compaction dropped tracked live row %d (pid %d)", row, s.pids[i])
			}
			s.rows[i] = int(nw)
		}
		s.compEpoch = c.Epoch
	}
	return nil
}

func (s *UpdateStream) insertPaper() (bool, error) {
	pid := s.next
	s.next++
	venue := s.net.Venues[s.rng.Intn(len(s.net.Venues))]
	year := s.net.Cfg.MinYear + s.rng.Intn(s.net.Cfg.MaxYear-s.net.Cfg.MinYear+1)
	title := fmt.Sprintf("Paper %d on %s topics", pid, venue)
	abstract := fmt.Sprintf("Abstract of paper %d.", pid)
	dblp := s.net.DB.Table("dblp")
	id, err := dblp.Insert(predicate.Int(pid), predicate.String(title),
		predicate.String(venue), predicate.Int(int64(year)), predicate.String(abstract))
	if err != nil {
		return false, err
	}
	links := s.net.DB.Table("dblp_author")
	nAuth := 1 + s.rng.Intn(3)
	seen := map[int]bool{}
	for a := 0; a < nAuth; a++ {
		aid := s.rng.Intn(len(s.net.Authors))
		if seen[aid] {
			continue
		}
		seen[aid] = true
		if _, err := links.Insert(predicate.Int(pid), predicate.Int(int64(aid))); err != nil {
			return false, err
		}
	}
	s.rows = append(s.rows, id)
	s.pids = append(s.pids, pid)
	s.Inserts++
	return true, nil
}

func (s *UpdateStream) deletePaper() (bool, error) {
	if len(s.rows) == 0 {
		return s.insertPaper()
	}
	i := s.rng.Intn(len(s.rows))
	row, pid := s.rows[i], s.pids[i]
	dblp := s.net.DB.Table("dblp")
	if !dblp.Delete(row) {
		return false, fmt.Errorf("workload: delete of live paper row %d failed", row)
	}
	// Referential cleanup: the paper's authorship links go with it.
	linkIDs, err := s.net.DB.LookupRowIDs("dblp_author", "pid", predicate.Int(pid))
	if err != nil {
		return false, err
	}
	links := s.net.DB.Table("dblp_author")
	for _, lid := range linkIDs {
		links.Delete(lid)
	}
	last := len(s.rows) - 1
	s.rows[i], s.pids[i] = s.rows[last], s.pids[last]
	s.rows, s.pids = s.rows[:last], s.pids[:last]
	s.Deletes++
	return true, nil
}

func (s *UpdateStream) updatePaper() (bool, error) {
	if len(s.rows) == 0 {
		return s.insertPaper()
	}
	row := s.rows[s.rng.Intn(len(s.rows))]
	dblp := s.net.DB.Table("dblp")
	var err error
	if s.rng.Float64() < 0.5 {
		venue := s.net.Venues[s.rng.Intn(len(s.net.Venues))]
		err = dblp.UpdateCol(row, "venue", predicate.String(venue))
	} else {
		year := s.net.Cfg.MinYear + s.rng.Intn(s.net.Cfg.MaxYear-s.net.Cfg.MinYear+1)
		err = dblp.UpdateCol(row, "year", predicate.Int(int64(year)))
	}
	if err != nil {
		return false, err
	}
	s.Updates++
	return true, nil
}

func (s *UpdateStream) linkChurn() (bool, error) {
	if len(s.rows) == 0 {
		return s.insertPaper()
	}
	pid := s.pids[s.rng.Intn(len(s.pids))]
	links := s.net.DB.Table("dblp_author")
	if s.rng.Float64() < 0.5 {
		aid := s.rng.Intn(len(s.net.Authors))
		if _, err := links.Insert(predicate.Int(pid), predicate.Int(int64(aid))); err != nil {
			return false, err
		}
		s.LinkOps++
		return true, nil
	}
	linkIDs, err := s.net.DB.LookupRowIDs("dblp_author", "pid", predicate.Int(pid))
	if err != nil {
		return false, err
	}
	if len(linkIDs) == 0 {
		return false, nil
	}
	links.Delete(linkIDs[s.rng.Intn(len(linkIDs))])
	s.LinkOps++
	return true, nil
}
