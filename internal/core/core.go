// Package core is the stable entry point of the HYPRE library: it wires
// the citation-network store (or any relational dataset), the HYPRE
// preference graph, and the Chapter 5 combination algorithms into one
// System that applications use to personalize queries.
//
// Typical use:
//
//	sys, _ := core.NewSystem(workload.DefaultConfig())
//	sys.AddQuantitative(42, `dblp.venue="VLDB"`, 0.8)
//	sys.AddQualitative(42, `dblp.venue="VLDB"`, `dblp.venue="ICDE"`, 0.3)
//	top, _ := sys.TopK(42, 10, core.Complete)
package core

import (
	"fmt"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/predicate"
	"hypre/internal/relstore"
	"hypre/internal/topk"
	"hypre/internal/workload"
)

// Re-exported types so callers only import core.
type (
	// ScoredPred is a preference usable in combinations.
	ScoredPred = hypre.ScoredPred
	// ScoredTuple is one ranked result.
	ScoredTuple = combine.ScoredTuple
	// Variant selects the PEPS flavour.
	Variant = combine.Variant
	// QualResult reports how a qualitative insert resolved.
	QualResult = hypre.QualResult
)

// Complete is the exact PEPS variant.
const Complete = combine.Complete

// System bundles a dataset, the preference graph, and per-user combination
// state.
type System struct {
	DB    *relstore.DB
	Graph *hypre.Graph
	Net   *workload.Network // nil when built over a custom DB

	base    func(predicate.Predicate) relstore.Query
	keyAttr string

	ev     *combine.Evaluator
	tables map[int64]*combine.PairTable
}

// NewSystem generates a synthetic DBLP citation network with the given
// configuration and an empty preference graph on top of it.
func NewSystem(cfg workload.Config) (*System, error) {
	net, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	s := newSystem(net.DB, workload.BaseQuery, "dblp.pid")
	s.Net = net
	return s, nil
}

// NewSystemWithWorkload additionally extracts preferences from the network
// (the five §6.2 rules) and builds the full multi-user HYPRE graph.
func NewSystemWithWorkload(cfg workload.Config) (*System, *workload.Prefs, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	prefs := workload.Extract(s.Net, workload.DefaultExtractConfig())
	if _, err := s.Graph.Build(prefs.Quant, prefs.Qual); err != nil {
		return nil, nil, err
	}
	return s, prefs, nil
}

// NewSystemOver builds a System over a caller-provided relational store:
// base maps a WHERE predicate to the query to run, keyAttr is the tuple
// identity attribute (e.g. "dealership.id").
func NewSystemOver(db *relstore.DB, base func(predicate.Predicate) relstore.Query, keyAttr string) *System {
	return newSystem(db, base, keyAttr)
}

func newSystem(db *relstore.DB, base func(predicate.Predicate) relstore.Query, keyAttr string) *System {
	return &System{
		DB:      db,
		Graph:   hypre.NewGraph(hypre.DefaultAvg),
		base:    base,
		keyAttr: keyAttr,
		ev:      combine.NewEvaluator(db, base, keyAttr),
		tables:  make(map[int64]*combine.PairTable),
	}
}

// AddQuantitative records "I like <predicate> with intensity v" for a user.
func (s *System) AddQuantitative(uid int64, pred string, intensity float64) error {
	if _, err := s.Graph.AddQuantitative(uid, pred, intensity); err != nil {
		return err
	}
	delete(s.tables, uid)
	return nil
}

// AddQualitative records "<left> is preferred over <right> with strength v"
// for a user.
func (s *System) AddQualitative(uid int64, left, right string, strength float64) (QualResult, error) {
	r, err := s.Graph.AddQualitative(uid, left, right, strength)
	if err == nil {
		delete(s.tables, uid)
	}
	return r, err
}

// Profile returns the user's usable preferences, descending by intensity.
func (s *System) Profile(uid int64) []ScoredPred { return s.Graph.PositiveProfile(uid) }

// pairTable returns the user's pre-computed combinations-of-two table,
// building it on first use and after profile changes.
func (s *System) pairTable(uid int64) (*combine.PairTable, []ScoredPred, error) {
	prefs := s.Profile(uid)
	if pt, ok := s.tables[uid]; ok && len(pt.Prefs) == len(prefs) {
		return pt, prefs, nil
	}
	pt, err := combine.BuildPairTable(prefs, s.ev)
	if err != nil {
		return nil, nil, err
	}
	s.tables[uid] = pt
	return pt, prefs, nil
}

// TopK runs PEPS for the user and returns the k most preferred tuples in
// descending combined-intensity order.
func (s *System) TopK(uid int64, k int, v Variant) ([]ScoredTuple, error) {
	pt, prefs, err := s.pairTable(uid)
	if err != nil {
		return nil, err
	}
	res, err := combine.PEPS(prefs, pt, s.ev, k, v)
	if err != nil {
		return nil, err
	}
	return res.Tuples, nil
}

// GroupTopK merges several users' profiles under the given group strategy
// (§8.2's group recommendation extension) and runs PEPS over the merged
// positive preferences.
func (s *System) GroupTopK(uids []int64, strategy hypre.GroupStrategy, k int, v Variant) ([]ScoredTuple, error) {
	merged, err := s.Graph.GroupProfile(uids, strategy)
	if err != nil {
		return nil, err
	}
	pos := merged[:0]
	for _, p := range merged {
		if p.Intensity > 0 {
			pos = append(pos, p)
		}
	}
	pt, err := combine.BuildPairTable(pos, s.ev)
	if err != nil {
		return nil, err
	}
	res, err := combine.PEPS(pos, pt, s.ev, k, v)
	if err != nil {
		return nil, err
	}
	return res.Tuples, nil
}

// TopKBaseline runs the Fagin TA baseline. TA only understands scores, so
// it sees just the preferences the user supplied quantitatively — the
// qualitative knowledge HYPRE converts is invisible to it (§7.6.3).
func (s *System) TopKBaseline(uid int64, k int) ([]ScoredTuple, error) {
	lists, err := topk.BuildLists(s.ev, s.Graph.QuantOnlyProfile(uid))
	if err != nil {
		return nil, err
	}
	return lists.TA(k), nil
}

// EnhancedQuery renders the mixed-clause rewritten WHERE fragment of §4.6
// for the user's profile (capped at maxPrefs preferences; 0 = all).
func (s *System) EnhancedQuery(uid int64, maxPrefs int) (string, float64) {
	prefs := s.Profile(uid)
	if maxPrefs > 0 && len(prefs) > maxPrefs {
		prefs = prefs[:maxPrefs]
	}
	e := hypre.EnhanceMixed(prefs)
	return e.Text(), e.Intensity
}

// TupleByKey fetches one row of the base table by the key attribute, for
// display.
func (s *System) TupleByKey(table string, keyCol string, key int64) (predicate.Row, bool) {
	tbl := s.DB.Table(table)
	if tbl == nil {
		return nil, false
	}
	rows, err := s.DB.Select(relstore.Query{
		From:  table,
		Where: &predicate.Cmp{Attr: keyCol, Op: predicate.OpEq, Val: predicate.Int(key)},
		Limit: 1,
	})
	if err != nil || len(rows) == 0 {
		return nil, false
	}
	return rows[0], true
}

// DescribeTuple formats selected attributes of a row.
func DescribeTuple(r predicate.Row, attrs ...string) string {
	out := ""
	for i, a := range attrs {
		if i > 0 {
			out += " "
		}
		v, ok := r.Get(a)
		if !ok {
			out += a + "=?"
			continue
		}
		out += fmt.Sprintf("%s=%s", a, v.AsString())
	}
	return out
}
