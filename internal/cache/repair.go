package cache

import (
	"slices"

	"hypre/internal/bitset"
	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/topk"
)

// syncBatch is what one ApplyDelta learned about the registry, in the
// terms an entry's repair reads. Predicates are named by registry id, and
// an id set is a bitmap over the ids.
type syncBatch struct {
	// moved holds the predicates whose membership moved on a touched row;
	// lost those whose footprint is lost or that ApplyRemap queued.
	moved, lost []uint64
	// pids is T, the sorted pids of every touched row, tombstoned or not.
	pids []int64
	// cands are the touched rows some registered predicate now matches
	// (MatchLeftRowSet reports live rows only), each with matched, the
	// ids of the predicates matching it.
	cands []candRow

	// Scratch reused across entries, so an entry whose answer does not
	// change costs no allocation.
	slots []float64
	vals  []float64
	out   []combine.ScoredTuple
}

type candRow struct {
	pid     int64
	matched []uint64
}

func setBit(w []uint64, id int) { w[id>>6] |= 1 << (id & 63) }

func hasBit(w []uint64, id int32) bool { return w[id>>6]&(1<<(id&63)) != 0 }

// rematch re-matches every registered predicate over the touched rows,
// patching the footprints, and returns the batch the sweep repairs with —
// or nil when no predicate moved or was lost, so no entry can change.
// Caller holds s.mu.
func (s *Server) rematch(touched *bitset.Set) *syncBatch {
	words := (len(s.foots) + 63) / 64
	b := &syncBatch{moved: make([]uint64, words), lost: make([]uint64, words)}
	changed := false
	for _, id := range s.remapLost {
		setBit(b.lost, int(id))
		changed = true
	}
	s.remapLost = nil
	candOf := map[int]int{}
	for id := range s.foots {
		pf := &s.foots[id]
		if pf.rows == nil {
			setBit(b.lost, id)
			changed = true
			continue
		}
		old := pf.rows.And(touched)
		now, err := s.db.MatchLeftRowSet(pf.q, touched)
		if err != nil {
			setBit(b.lost, id)
			changed = true
			pf.rows = nil
			continue
		}
		if !setsEqual(old, now) {
			setBit(b.moved, id)
			changed = true
			pf.rows = pf.rows.AndNot(touched).Or(now)
		}
		now.ForEach(func(row int) bool {
			ci, ok := candOf[row]
			if !ok {
				ci = len(b.cands)
				candOf[row] = ci
				pid := s.left.Value(row, s.keyCol).AsInt()
				b.cands = append(b.cands, candRow{pid: pid, matched: make([]uint64, words)})
			}
			setBit(b.cands[ci].matched, id)
			return true
		})
	}
	if !changed {
		return nil
	}
	// A tombstoned row still answers Value, so a deleted member's pid
	// lands in T and leaves the answer.
	touched.ForEach(func(row int) bool {
		b.pids = append(b.pids, s.left.Value(row, s.keyCol).AsInt())
		return true
	})
	slices.Sort(b.pids)
	return b
}

// setsEqual reports a == b without materializing a diff.
func setsEqual(a, b *bitset.Set) bool {
	return a.Len() == b.Len() && a.AndCard(b) == a.Len()
}

// fix is the sweep's per-entry verdict: drop an entry naming a lost
// predicate, keep one naming no moved predicate, and repair the rest.
func (b *syncBatch) fix(e *entry) *entry {
	moved := false
	for _, p := range e.prefs {
		if hasBit(b.lost, p.id) {
			return nil
		}
		moved = moved || hasBit(b.moved, p.id)
	}
	if !moved {
		return e
	}
	return b.repair(e)
}

// repair applies the dynamic top-k rule to one entry. R is its answer, T
// the touched pids, and C the touched rows its profile now matches, each
// graded afresh; every untouched tuple keeps its grade and its membership.
//
//   - R′ = R minus every pid in T.
//   - Full entry (|R| = k): an untouched outsider ranked below the old
//     k-th tuple b and still does, so S = R′ ∪ {c ∈ C : c ranks at or above
//     b} holds every tuple that can rank at or above b. If |S| ≥ k the top
//     k of S is the answer; otherwise a member fell out with nothing proven
//     to replace it, and the entry is dropped.
//   - Short entry (|R| < k): R held every match, so the top k of R′ ∪ C is
//     exact.
//
// It returns e itself, without allocating, when the answer is unchanged.
func (b *syncBatch) repair(e *entry) *entry {
	k := int(e.key.k)
	if k <= 0 {
		return e
	}
	full := len(e.tuples) >= k
	out := b.out[:0]
	for _, t := range e.tuples {
		if _, in := slices.BinarySearch(b.pids, t.PID); !in {
			out = append(out, t)
		}
	}
	for i := range b.cands {
		g, ok := b.grade(e, &b.cands[i])
		if !ok {
			continue
		}
		c := combine.ScoredTuple{PID: b.cands[i].pid, Intensity: g}
		if full && topk.Outranks(e.tuples[k-1], c) {
			continue
		}
		j := len(out)
		for j > 0 && topk.Outranks(c, out[j-1]) {
			j--
		}
		out = slices.Insert(out, j, c)
	}
	b.out = out
	if full && len(out) < k {
		return nil
	}
	out = out[:min(len(out), k)]
	if slices.Equal(out, e.tuples) {
		return e
	}
	n := &entry{key: e.key, tuples: slices.Clone(out), prefs: e.prefs}
	n.size = entryBytes(n)
	return n
}

// grade folds a candidate row's grade under the entry's profile exactly as
// the streaming and TA paths do: within each attribute slot FAnd over the
// matched intensities in profile order from 0, then FAndAll over the
// non-zero slot grades in slot order. ok is false when no preference
// matches the row; a row matched only at intensity 0 is a grade-0
// candidate, because streaming pushes it.
func (b *syncBatch) grade(e *entry, c *candRow) (float64, bool) {
	if !slices.ContainsFunc(e.prefs, func(p entryPref) bool { return hasBit(c.matched, p.id) }) {
		return 0, false
	}
	slots := b.slots[:0]
	for range e.prefs {
		slots = append(slots, 0)
	}
	b.slots = slots
	for _, p := range e.prefs {
		if hasBit(c.matched, p.id) {
			slots[p.slot] = hypre.FAnd(slots[p.slot], p.intensity)
		}
	}
	vals := b.vals[:0]
	for _, g := range slots {
		if g != 0 {
			vals = append(vals, g)
		}
	}
	b.vals = vals
	return hypre.FAndAll(vals...), true
}
