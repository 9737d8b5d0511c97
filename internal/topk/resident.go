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
// preference matched. Both are all zero between uses.
type residentScratch struct {
	grades  []float64
	touched []uint64
	vals    []float64
}

var residentPool = sync.Pool{New: func() any { return new(residentScratch) }}

// RankResident answers a top-k profile query from a snapshot of its
// predicates' resident bitmaps (combine.Evaluator.Resident, which must hold
// every preference), byte-identical to BuildLists + Lists.TA and to
// EvaluateStreaming over the store state the bitmaps describe. It grades
// exactly as they do, over a pooled dense scratch instead of maps: each
// preference with an AttrSlots slot, in profile order, folds its intensity
// with FAnd into that slot's grade of every dense id in its bitmap; each
// touched id then folds its non-zero slot grades in slot order with FAndAll
// and enters the top-k heap under Outranks. No store block is read. tr
// records exec "resident" and the StageResident span (nil = disabled).
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
	defer residentPool.Put(sc)
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
		r.Bits[i].ForEach(func(di int) {
			touched[di>>6] |= 1 << (uint(di) & 63)
			g := &grades[di*ns+s]
			*g = hypre.FAnd(*g, intensity)
		})
	}

	top := make(taHeap, 0, min(k, n))
	for w, word := range touched {
		for ; word != 0; word &= word - 1 {
			di := w<<6 | bits.TrailingZeros64(word)
			row := grades[di*ns : di*ns+ns]
			vals := sc.vals[:0]
			for s, g := range row {
				if g != 0 {
					vals = append(vals, g)
				}
				row[s] = 0
			}
			sc.vals = vals
			top.push(combine.ScoredTuple{PID: r.PIDs[di], Intensity: hypre.FAndAll(vals...)}, k)
		}
		touched[w] = 0
	}
	sort.Slice(top, func(i, j int) bool { return Outranks(top[i], top[j]) })
	return top
}
