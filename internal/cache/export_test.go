package cache

import (
	"hypre/internal/combine"
	"hypre/internal/hypre"
)

// Peek returns the resident answer for a profile at k without touching
// recency or counters: what a hit would serve right now.
func (s *Server) Peek(prefs []hypre.ScoredPred, k int) ([]combine.ScoredTuple, bool) {
	_, fp := combine.CanonicalProfile(prefs)
	sh := s.c.shardOf(fp)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[entryKey{fp: fp, k: int32(k)}]
	if !ok {
		return nil, false
	}
	return cloneTuples(e.tuples), true
}
