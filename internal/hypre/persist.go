package hypre

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"hypre/internal/graphdb"
)

// persistHeader carries the HYPRE-level state the graph store does not
// hold: the DEFAULT_VALUE strategy and the per-user intensity history the
// Table 12 aggregates are computed from.
type persistHeader struct {
	Version  int
	Strategy int
	UserIDs  []int64
	UserVals [][]float64
}

const persistVersion = 1

// Save serializes the preference graph (all users) to w: a small header
// with the strategy and DEFAULT_VALUE history, followed by the graph-store
// snapshot.
func (h *Graph) Save(w io.Writer) error {
	hdr := persistHeader{Version: persistVersion, Strategy: int(h.strategy)}
	ids := make([]int64, 0, len(h.userSeen))
	for uid := range h.userSeen {
		ids = append(ids, uid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, uid := range ids {
		hdr.UserIDs = append(hdr.UserIDs, uid)
		hdr.UserVals = append(hdr.UserVals, append([]float64(nil), h.userSeen[uid]...))
	}
	if err := gob.NewEncoder(w).Encode(hdr); err != nil {
		return fmt.Errorf("hypre: save header: %w", err)
	}
	return h.g.Snapshot(w)
}

// Load reconstructs a preference graph previously written by Save,
// rebuilding the (uid, predicate) -> node map from node properties.
func Load(r io.Reader) (*Graph, error) {
	var hdr persistHeader
	if err := gob.NewDecoder(r).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("hypre: load header: %w", err)
	}
	if hdr.Version != persistVersion {
		return nil, fmt.Errorf("hypre: unsupported save version %d", hdr.Version)
	}
	store, err := graphdb.Restore(r)
	if err != nil {
		return nil, err
	}
	h := newGraph(store, DefaultStrategy(hdr.Strategy))
	for i, uid := range hdr.UserIDs {
		h.userSeen[uid] = append([]float64(nil), hdr.UserVals[i]...)
	}
	store.ForEachNode(func(id graphdb.NodeID, _ []string, props graphdb.Props) bool {
		uidV, okU := props[propUID]
		predV, okP := props[propPredicate]
		if okU && okP {
			h.byKey[nodeKey{uidV.AsInt(), predV.AsString()}] = id
		}
		return true
	})
	return h, nil
}
