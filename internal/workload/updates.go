package workload

import "fmt"

// This file sets up the online-mutation workload: a seeded mix of paper
// inserts, deletes, attribute updates, and authorship-link churn over the
// synthetic DBLP network, which stream.go plans into pid-keyed ops — the
// write traffic the delta and cache suites, /v1/mutate and bench/'s
// mixed-rw workload replay against the mutable store.

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

// UpdateStream plans a deterministic, seeded mutation mix over a
// network's store (PlanPartitions). It snapshots the live paper set once,
// when it is built, so every plan it makes starts from that state.
type UpdateStream struct {
	net  *Network
	cfg  StreamConfig
	next int64   // next fresh pid
	pids []int64 // the live papers at construction
}

// NewUpdateStream builds a stream over the network's store, snapshotting
// the current live paper set.
func NewUpdateStream(net *Network, cfg StreamConfig) (*UpdateStream, error) {
	dblp := net.DB.Table("dblp")
	if dblp == nil {
		return nil, fmt.Errorf("workload: network store has no dblp table")
	}
	s := &UpdateStream{net: net, cfg: cfg}
	for id := 0; id < dblp.Len(); id++ {
		if !dblp.Alive(id) {
			continue
		}
		pid := dblp.Value(id, "pid").AsInt()
		s.pids = append(s.pids, pid)
		if pid >= s.next {
			s.next = pid + 1
		}
	}
	return s, nil
}
