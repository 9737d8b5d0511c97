// Package topk implements the Top-K baseline of §7.6.1: Fagin's Threshold
// Algorithm (TA) over per-attribute sorted grade lists built from
// quantitative preferences, with the f∧ aggregation function of Eq. 4.3.
// PEPS is evaluated against it in Figs. 37/38.
package topk

import (
	"slices"
	"sort"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/obs"
)

// ListEntry is one (object, grade) pair of an attribute list.
type ListEntry struct {
	PID   int64
	Grade float64
}

// Lists is the TA input: m sorted lists, one per attribute, each ordered
// descending by grade (ties by pid ascending, the determinism rule of every
// TA output), with random access by pid (Definition 20's setup). It is built
// once and never written again, so concurrent TA rankings need no lock; a
// store mutation is answered by building fresh lists over the maintained
// evaluator, not by patching these.
type Lists struct {
	Names  []string
	sorted [][]ListEntry
	grades []map[int64]float64 // grade per pid (random access)
}

// NewLists builds the structure from per-attribute grade maps; each list is
// sorted descending by grade (ties by pid for determinism).
func NewLists(names []string, gradeMaps []map[int64]float64) *Lists {
	l := &Lists{Names: names, grades: gradeMaps}
	for _, m := range gradeMaps {
		list := make([]ListEntry, 0, len(m))
		for pid, g := range m {
			list = append(list, ListEntry{PID: pid, Grade: g})
		}
		sort.Slice(list, func(i, j int) bool {
			if list[i].Grade != list[j].Grade {
				return list[i].Grade > list[j].Grade
			}
			return list[i].PID < list[j].PID
		})
		l.sorted = append(l.sorted, list)
	}
	return l
}

// aggregate computes the overall grade t(R) = f∧ over the grades of R in
// every list where it appears (absent lists contribute 0, the identity of
// f∧), matching §7.6.1's final combination step which "also added all the
// tuples that are in only one list".
func (l *Lists) aggregate(pid int64) float64 {
	vals := make([]float64, 0, len(l.grades))
	for _, m := range l.grades {
		if g, ok := m[pid]; ok {
			vals = append(vals, g)
		}
	}
	return hypre.FAndAll(vals...)
}

// taHeap is a bounded min-heap over scored tuples, rooted at the worst
// kept entry under Outranks — so keeping the k best costs O(log k) per
// newly seen object instead of the O(k log k) full re-sort the insert step
// used to pay.
type taHeap []combine.ScoredTuple

// Outranks reports whether a ranks strictly above b in a top-k answer:
// higher grade first, ties by smaller pid — the determinism rule of every
// ranking this package returns. The result cache's repair ranks with it
// too, so a repaired answer orders exactly as a fresh evaluation does.
func Outranks(a, b combine.ScoredTuple) bool {
	if a.Intensity != b.Intensity {
		return a.Intensity > b.Intensity
	}
	return a.PID < b.PID
}

func (h taHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !Outranks(h[parent], h[i]) { // parent already worse or equal: heap holds
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (h taHeap) siftDown(i int) {
	for {
		worst := i
		if l := 2*i + 1; l < len(h) && Outranks(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h) && Outranks(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// push keeps the k best entries: below capacity it inserts, at capacity it
// replaces the root (the worst kept) only when s outranks it.
func (h *taHeap) push(s combine.ScoredTuple, k int) {
	if len(*h) < k {
		*h = append(*h, s)
		h.siftUp(len(*h) - 1)
		return
	}
	if Outranks(s, (*h)[0]) {
		(*h)[0] = s
		h.siftDown(0)
	}
}

// TA runs Fagin's Threshold Algorithm (Definition 20) and returns the top-k
// objects by aggregated grade, descending (ties by pid):
//
//  1. Sorted access in parallel to each list; every newly seen object is
//     random-accessed in the other lists and its overall grade computed.
//  2. After each depth, the threshold τ is the aggregate of the last grades
//     seen under sorted access; once k objects have grade strictly above τ,
//     halt. (Strict: an unseen object can still reach exactly τ, and under
//     the grade-desc/pid-asc ranking it would displace a kept object with
//     an equal grade but larger pid.)
func (l *Lists) TA(k int) []combine.ScoredTuple { return l.TATraced(k, nil) }

// TATraced is TA with per-query observability: the sorted-access depth the
// loop reached (TA rounds) and whether the threshold rule halted it before
// list exhaustion land in tr's engine counters. tr may be nil (TA calls it
// that way); the algorithm is unchanged.
func (l *Lists) TATraced(k int, tr *obs.Trace) []combine.ScoredTuple {
	if k <= 0 || len(l.sorted) == 0 {
		return nil
	}
	seen := map[int64]bool{}
	top := make(taHeap, 0, k)

	insert := func(pid int64) {
		if seen[pid] {
			return
		}
		seen[pid] = true
		top.push(combine.ScoredTuple{PID: pid, Intensity: l.aggregate(pid)}, k)
	}

	maxDepth := 0
	for _, list := range l.sorted {
		maxDepth = max(maxDepth, len(list))
	}
	rounds, earlyExit := 0, false
	for depth := 0; depth < maxDepth; depth++ {
		lastGrades := make([]float64, 0, len(l.sorted))
		for _, list := range l.sorted {
			if depth < len(list) {
				insert(list[depth].PID)
				lastGrades = append(lastGrades, list[depth].Grade)
			} else if len(list) > 0 {
				// An exhausted list contributes its floor grade of 0.
				lastGrades = append(lastGrades, 0)
			}
		}
		rounds++
		tau := hypre.FAndAll(lastGrades...)
		// top[0] is the k-th (worst kept) grade, the halting bound.
		if len(top) >= k && top[0].Intensity > tau {
			earlyExit = true
			break
		}
	}
	tr.AddTA(int64(rounds), earlyExit)

	sort.Slice(top, func(i, j int) bool { return Outranks(top[i], top[j]) })
	return top
}

// BuildLists materializes the per-attribute grade tables of §7.6.1
// (intensity_venue, intensity_author) from a profile: preferences are
// grouped by attribute (one list per AttrSlots slot); each tuple's grade within an attribute is the f∧
// combination of the intensities of the matching preferences (the composite
// grade used for multi-author papers). Only non-negative preferences
// participate (TA grades live in [0, 1]).
func BuildLists(ev *combine.Evaluator, prefs []hypre.ScoredPred) (*Lists, error) {
	slots, names := AttrSlots(prefs)
	maps := make([]map[int64]float64, len(names))
	for s := range maps {
		grades := map[int64]float64{}
		for i, p := range prefs {
			if slots[i] != s {
				continue
			}
			// Iterate the cached dense bitmap directly: the TA baseline
			// shares the evaluator's bitmap cache instead of materializing
			// IntSet slices of its own. Per-pid accumulation is
			// order-insensitive, so dense-index iteration matches the
			// sorted-slice walk exactly.
			b, err := ev.PredBitmap(p)
			if err != nil {
				return nil, err
			}
			intensity := p.Intensity
			b.ForEachPid(ev.Dict(), func(pid int64) {
				grades[pid] = hypre.FAnd(grades[pid], intensity)
			})
		}
		maps[s] = grades
	}
	return NewLists(names, maps), nil
}

// AttrSlots assigns each preference of a profile the attribute slot its
// grade folds into — the one grouping rule BuildLists, RankResident and
// the result cache's repair all grade by. Slots number the attributes
// of the non-negative preferences in first-seen order, with an unnamed
// attribute pooled under "(multi)"; names[s] is slot s's attribute. A
// negative preference gets slot -1: no top-k path grades it.
//
// A tuple's grade is then fixed by the preferences it matches: within a
// slot, FAnd folds their intensities in profile order starting from 0;
// across slots, FAndAll folds the slot grades in slot order (a zero slot
// grade multiplies the product by exactly 1, so skipping it is exact).
func AttrSlots(prefs []hypre.ScoredPred) (slots []int, names []string) {
	slots = make([]int, len(prefs))
	for i, p := range prefs {
		if p.Intensity < 0 {
			slots[i] = -1
			continue
		}
		attr := p.Attr
		if attr == "" {
			attr = "(multi)"
		}
		s := slices.Index(names, attr)
		if s < 0 {
			s = len(names)
			names = append(names, attr)
		}
		slots[i] = s
	}
	return slots, names
}
