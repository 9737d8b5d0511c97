package topk

import (
	"errors"
	"sort"

	"hypre/internal/bitset"
	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/obs"
	"hypre/internal/relstore"
)

// This file is the streaming (one-shot) execution path: instead of
// materializing every preference's full bitmap into the evaluator cache and
// then building sorted TA lists, each preference opens a block iterator over
// the store and the per-attribute grades accumulate block by block. The TA
// threshold rule runs on the stream — once the k-th kept grade strictly
// exceeds the best grade any row in a later block could still reach, the
// remaining blocks are never evaluated. Work and memory are proportional to
// the rows scanned, not to the table or the profile's bitmap footprint.

// taSlack pads the streaming threshold before the strict halting comparison.
// A row's grade folds f∧ over the subset of active preferences matching it
// while the threshold folds the full active set; in exact arithmetic
// subset ≤ superset, but each f∧ step rounds, so a subset fold can exceed
// the superset fold by a few ulps. 1e-9 dominates any such accumulation
// (relative error stays near 1e-13 even for thousands of preferences) at
// the cost of scanning on through grade gaps smaller than a billionth.
const taSlack = 1e-9

// StreamStats reports what the streaming evaluation actually did — the
// observables the trace's engine counters and bench/'s relstore.* layer
// metrics are fed from.
type StreamStats struct {
	Streamed      bool // false when the cached/materialized path answered
	BlocksTotal   int  // base-table blocks the scans could have touched
	BlocksScanned int  // merge steps actually taken before the threshold fired
	BlocksSkipped int  // blocks the zone-map prepass ruled out, summed per iterator
	RowsSeen      int  // (pref, row) match pairs streamed into the grade maps
	EarlyExit     bool // the threshold rule stopped the scan before exhaustion
}

// streamPref is one TA-eligible preference of the profile: its intensity
// and the slot of the attribute list it grades into.
type streamPref struct {
	intensity float64
	attr      int
}

// streamPending is the refill state of one preference's block iterator.
type streamPending struct {
	bi   int
	lids []int32
	vals []int64
	done bool
}

// EvaluateStreaming answers the top-k profile query through block-streamed
// scans, byte-identical to BuildLists + Lists.TA over the same store
// snapshot. The evaluator's key attribute must uniquely identify base
// tuples (it is the dblp primary key here); a duplicated key would fold a
// preference's intensity once per duplicate row where the bitmap path folds
// it once per tuple.
//
// Unsupported query shapes surface relstore.ErrStreamUnsupported; the
// caller (EvaluateOneShot) falls back to the materialized path.
func EvaluateStreaming(ev *combine.Evaluator, prefs []hypre.ScoredPred, k int) ([]combine.ScoredTuple, *StreamStats, error) {
	return EvaluateStreamingTraced(ev, prefs, k, nil)
}

// EvaluateStreamingTraced is EvaluateStreaming with per-query observability:
// the whole block-lockstep loop runs under one trace span (scanning and the
// threshold rule are fused per block, inseparable by design), and the scan
// footprint — blocks evaluated, blocks zone-map-skipped, rows streamed, the
// early-exit depth — lands in tr's engine counters. tr may be nil.
func EvaluateStreamingTraced(ev *combine.Evaluator, prefs []hypre.ScoredPred, k int, tr *obs.Trace) ([]combine.ScoredTuple, *StreamStats, error) {
	sp := tr.StartSpan(obs.StageStream)
	out, st, err := evaluateStreaming(ev, prefs, k)
	tr.EndSpan(sp)
	if st != nil {
		tr.AddBlocks(int64(st.BlocksScanned), int64(st.BlocksSkipped), int64(st.RowsSeen))
		// The streaming loop's TA depth is its block count; record the
		// early-exit verdict with it.
		tr.AddTA(int64(st.BlocksScanned), st.EarlyExit)
	}
	return out, st, err
}

func evaluateStreaming(ev *combine.Evaluator, prefs []hypre.ScoredPred, k int) ([]combine.ScoredTuple, *StreamStats, error) {
	st := &StreamStats{Streamed: true}
	// Group by attribute exactly like BuildLists: one slot per AttrSlots
	// attribute, negatives skipped.
	slots, names := AttrSlots(prefs)
	nAttrs := len(names)
	var sp []streamPref
	var qs []relstore.Query
	for i, p := range prefs {
		if slots[i] < 0 {
			continue
		}
		sp = append(sp, streamPref{intensity: p.Intensity, attr: slots[i]})
		qs = append(qs, ev.BaseQuery(p.P))
	}
	if k <= 0 || len(sp) == 0 {
		return nil, st, nil
	}

	g, err := ev.DB().OpenAttrRowIterGroup(qs, ev.KeyAttr())
	if err != nil {
		return nil, st, err
	}
	defer g.Close()

	// Grades accumulate in per-attribute arrays covering only the current
	// block: every key value lives in exactly one base row, so its grade is
	// final the moment all iterators move past that row's block, and no
	// table-sized (or answer-sized) grade map ever exists. A slot value of 0
	// is "no match" — f∧'s identity — so zero-intensity matches fold away
	// exactly like the materialized path's explicit zero entries do
	// (multiplying the product by 1-0 is exact).
	grades := make([][]float64, nAttrs)
	for i := range grades {
		grades[i] = make([]float64, bitset.BlockBits)
	}
	var pids [bitset.BlockBits]int64
	var touched bitset.Block
	pend := make([]streamPending, len(sp))
	for i, it := range g.Iters {
		if nb := it.NumBlocks(); nb > st.BlocksTotal {
			st.BlocksTotal = nb
		}
		st.BlocksSkipped += it.ZoneSkipped()
		bi, lids, vals, ok := it.NextBlock()
		pend[i] = streamPending{bi: bi, lids: lids, vals: vals, done: !ok}
	}

	top := make(taHeap, 0, k)
	var aggScratch, tauAttr []float64
	tauSeen := make([]bool, nAttrs)
	for {
		// Advance to the smallest pending block index across preferences.
		cur, any := 0, false
		for i := range pend {
			if !pend[i].done && (!any || pend[i].bi < cur) {
				cur, any = pend[i].bi, true
			}
		}
		if !any {
			break
		}
		st.BlocksScanned++
		base := cur * bitset.BlockBits
		touched.Reset(base)
		for i := range pend {
			if pend[i].done || pend[i].bi != cur {
				continue
			}
			acc := grades[sp[i].attr]
			intensity := sp[i].intensity
			for j, lid := range pend[i].lids {
				slot := int(lid) - base
				acc[slot] = hypre.FAnd(acc[slot], intensity)
				pids[slot] = pend[i].vals[j]
				touched.Set(int(lid))
			}
			st.RowsSeen += len(pend[i].lids)
			bi, lids, vals, ok := g.Iters[i].NextBlock()
			pend[i] = streamPending{bi: bi, lids: lids, vals: vals, done: !ok}
		}
		// Every iterator has moved past cur, so the block's rows hold their
		// final grades (a unique key appears in exactly one row); push each
		// touched row once, zeroing its slots for the next block.
		touched.ForEach(func(lid int) bool {
			slot := lid - base
			vals := aggScratch[:0]
			for a := range grades {
				if g := grades[a][slot]; g != 0 {
					vals = append(vals, g)
				}
				grades[a][slot] = 0
			}
			aggScratch = vals
			top.push(combine.ScoredTuple{PID: pids[slot], Intensity: hypre.FAndAll(vals...)}, k)
			return true
		})
		if len(top) >= k {
			tau := streamThreshold(sp, pend, nAttrs, &tauAttr, tauSeen)
			if top[0].Intensity > tau+taSlack {
				st.EarlyExit = true
				break
			}
		}
	}

	sort.Slice(top, func(i, j int) bool { return Outranks(top[i], top[j]) })
	return top, st, nil
}

// streamThreshold is the best overall grade a not-yet-streamed row can still
// reach: the f∧ fold of the active preferences' intensities (active = the
// iterator still has blocks pending; an exhausted preference cannot match
// any later row), grouped per attribute exactly like row grades are — FAnd
// within the attribute in profile order, then FAndAll across the populated
// attributes — so a hypothetical row matching every active preference folds
// to exactly this value and any real row folds below it (up to the ulp
// divergence taSlack absorbs).
func streamThreshold(sp []streamPref, pend []streamPending, nAttrs int, attrScratch *[]float64, seen []bool) float64 {
	perAttr := (*attrScratch)[:0]
	for i := 0; i < nAttrs; i++ {
		perAttr = append(perAttr, 0)
		seen[i] = false
	}
	*attrScratch = perAttr
	for i := range sp {
		if pend[i].done {
			continue
		}
		a := sp[i].attr
		perAttr[a] = hypre.FAnd(perAttr[a], sp[i].intensity)
		seen[a] = true
	}
	vals := perAttr[:0]
	for a, g := range perAttr {
		if seen[a] {
			vals = append(vals, g)
		}
	}
	return hypre.FAndAll(vals...)
}

// EvaluateOneShot is the entry point for a single top-k profile query: it
// streams, so no full bitmaps are built and no store entries are left
// behind, and a query shape the streaming planner refuses falls back to
// the materialized path (BuildLists + TA). The answer is always the same;
// only the work differs.
func EvaluateOneShot(ev *combine.Evaluator, prefs []hypre.ScoredPred, k int) ([]combine.ScoredTuple, *StreamStats, error) {
	return EvaluateOneShotTraced(ev, prefs, k, nil)
}

// EvaluateOneShotTraced is EvaluateOneShot with the router decision and the
// chosen path's stage spans recorded into tr (nil = disabled).
func EvaluateOneShotTraced(ev *combine.Evaluator, prefs []hypre.ScoredPred, k int, tr *obs.Trace) ([]combine.ScoredTuple, *StreamStats, error) {
	out, st, err := EvaluateStreamingTraced(ev, prefs, k, tr)
	if errors.Is(err, relstore.ErrStreamUnsupported) {
		tr.SetExec("materialized_fallback")
		return evalMaterialized(ev, prefs, k, tr)
	}
	tr.SetExec("streaming")
	return out, st, err
}

func evalMaterialized(ev *combine.Evaluator, prefs []hypre.ScoredPred, k int, tr *obs.Trace) ([]combine.ScoredTuple, *StreamStats, error) {
	sp := tr.StartSpan(obs.StageBuildLists)
	lists, err := BuildLists(ev, prefs)
	tr.EndSpan(sp)
	if err != nil {
		return nil, nil, err
	}
	sp = tr.StartSpan(obs.StageTA)
	out := lists.TATraced(k, tr)
	tr.EndSpan(sp)
	return out, &StreamStats{}, nil
}
