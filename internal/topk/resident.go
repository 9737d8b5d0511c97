package topk

import (
	"math/bits"
	"sort"
	"sync"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/obs"
)

// residentScratch is RankResident's dense working set: grades holds one
// f∧ accumulator per (dense id, slot), id-major; touched marks the ids some
// preference matched. Both are all zero between uses; a fold that panics
// midway leaves them dirty, so only a normal return puts them back.
type residentScratch struct {
	grades  []float64
	touched []uint64
}

var residentPool = sync.Pool{New: func() any { return new(residentScratch) }}

// RankResident answers a top-k profile query from a snapshot of its
// predicates' resident bitmaps (combine.Evaluator.Resident, which must hold
// every preference), byte-identical to BuildLists + Lists.TA and to
// EvaluateStreaming over the store state the bitmaps describe. It grades
// exactly as they do, over a pooled dense scratch instead of maps: each
// preference with an AttrSlots slot, in profile order, walks its bitmap a
// 64-bit word at a time, ORs the word into the touched bitmap and folds its
// intensity with FAnd into that slot's grade of every dense id in the word.
// Each touched id then multiplies prod by 1 − g over all its slots in slot
// order and ranks with grade 1 − prod under Outranks. That is FAndAll over
// the non-zero slot grades bit for bit: a zero grade contributes 1 − 0 = 1
// exactly and x·1 = x exactly, so the product skips nothing and needs no
// branch. No store block is read. tr records exec "resident" and the
// StageResident span (nil = disabled).
func RankResident(r combine.Resident, prefs []hypre.ScoredPred, k int, tr *obs.Trace) []combine.ScoredTuple {
	tr.SetExec("resident")
	sp := tr.StartSpan(obs.StageResident)
	defer tr.EndSpan(sp)
	slots, names := AttrSlots(prefs)
	if k <= 0 || len(names) == 0 {
		return nil
	}
	ns, n, nw := len(names), len(r.PIDs), (len(r.PIDs)+63)/64
	sc := residentPool.Get().(*residentScratch)
	if cap(sc.grades) < n*ns {
		sc.grades = make([]float64, n*ns)
	}
	if cap(sc.touched) < nw {
		sc.touched = make([]uint64, nw)
	}
	grades, touched := sc.grades[:n*ns], sc.touched[:nw]

	for i, p := range prefs {
		s := slots[i]
		if s < 0 {
			continue
		}
		intensity := p.Intensity
		r.Bits[i].ForEachWord(func(wi int, w uint64) {
			touched[wi] |= w
			for base := wi << 6; w != 0; w &= w - 1 {
				g := &grades[(base|bits.TrailingZeros64(w))*ns+s]
				*g = hypre.FAnd(*g, intensity)
			}
		})
	}

	top := make(taHeap, 0, min(k, n))
	for w, word := range touched {
		for ; word != 0; word &= word - 1 {
			di := w<<6 | bits.TrailingZeros64(word)
			row := grades[di*ns : di*ns+ns]
			prod := 1.0
			for s, g := range row {
				prod *= 1 - g
				row[s] = 0
			}
			st := combine.ScoredTuple{PID: r.PIDs[di], Intensity: 1 - prod}
			// push's own test, inlined: most ids lose to the root, and
			// push is not inlinable.
			if len(top) < k || Outranks(st, top[0]) {
				top.push(st, k)
			}
		}
		touched[w] = 0
	}
	residentPool.Put(sc)
	sort.Slice(top, func(i, j int) bool { return Outranks(top[i], top[j]) })
	return top
}
