package cache

import (
	"slices"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/topk"
)

// syncBatch is one ApplyDelta's repair state: the refresh's row delta,
// plus scratch reused across entries, so an entry whose answer does not
// change costs no allocation.
type syncBatch struct {
	d *combine.RowDelta

	slots []float64
	vals  []float64
	out   []combine.ScoredTuple
}

// has reports whether the sorted id list ids holds id.
func has(ids []int32, id int32) bool {
	_, ok := slices.BinarySearch(ids, id)
	return ok
}

// fix is the sweep's per-entry verdict: keep an entry naming no moved
// predicate, and repair the rest.
func (b *syncBatch) fix(e *entry) *entry {
	for _, p := range e.prefs {
		if has(b.d.Moved, p.id) {
			return b.repair(e)
		}
	}
	return e
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
		if _, in := slices.BinarySearch(b.d.PIDs, t.PID); !in {
			out = append(out, t)
		}
	}
	for i := range b.d.Rows {
		g, ok := b.grade(e, b.d.Rows[i].IDs)
		if !ok {
			continue
		}
		c := combine.ScoredTuple{PID: b.d.Rows[i].PID, Intensity: g}
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
// the resident and TA paths do: within each attribute slot FAnd
// over the matched intensities in profile order from 0, then FAndAll over
// the non-zero slot grades in slot order. ok is false when no preference
// matches the row; a row matched only at intensity 0 is a grade-0
// candidate, because those paths push it.
func (b *syncBatch) grade(e *entry, matched []int32) (float64, bool) {
	if !slices.ContainsFunc(e.prefs, func(p entryPref) bool { return has(matched, p.id) }) {
		return 0, false
	}
	slots := b.slots[:0]
	for range e.prefs {
		slots = append(slots, 0)
	}
	b.slots = slots
	for _, p := range e.prefs {
		if has(matched, p.id) {
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
