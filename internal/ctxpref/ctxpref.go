// Package ctxpref implements contextual preferences — the preference-graph
// flavour of Definition 11 / Fig. 2 (Stefanidis & Pitoura) that Chapter 2
// surveys and §8.2 names as HYPRE's natural extension: preferences
// annotated with a context state over hierarchical dimensions (e.g.
// (company=friends, weather=good, occasion=holidays)), grouped by state
// and resolved at query time to the most specific preferences matching the
// current context.
package ctxpref

import (
	"fmt"
	"sort"
	"strings"

	"hypre/internal/hypre"
)

// All is the root value of every dimension hierarchy.
const All = "ALL"

// Hierarchy is one context dimension: a tree of values rooted at ALL.
type Hierarchy struct {
	Name   string
	parent map[string]string
}

// NewHierarchy creates a dimension containing only ALL.
func NewHierarchy(name string) *Hierarchy {
	return &Hierarchy{Name: name, parent: map[string]string{All: ""}}
}

// Add inserts value under parent. The parent must already exist.
func (h *Hierarchy) Add(value, parent string) error {
	if value == All {
		return fmt.Errorf("ctxpref: cannot redefine ALL")
	}
	if _, ok := h.parent[parent]; !ok {
		return fmt.Errorf("ctxpref: unknown parent %q in dimension %s", parent, h.Name)
	}
	if _, dup := h.parent[value]; dup {
		return fmt.Errorf("ctxpref: duplicate value %q in dimension %s", value, h.Name)
	}
	h.parent[value] = parent
	return nil
}

// Has reports whether the value exists in the dimension.
func (h *Hierarchy) Has(value string) bool {
	_, ok := h.parent[value]
	return ok
}

// Covers reports whether general is an ancestor-or-self of specific
// (ALL covers everything).
func (h *Hierarchy) Covers(general, specific string) bool {
	for v := specific; v != ""; v = h.parent[v] {
		if v == general {
			return true
		}
		if v == All {
			break
		}
	}
	return general == All
}

// Depth returns the distance from ALL (ALL = 0).
func (h *Hierarchy) Depth(value string) int {
	d := 0
	for v := value; v != All && v != ""; v = h.parent[v] {
		d++
	}
	return d
}

// Model is an ordered set of dimensions.
type Model struct {
	Dims []*Hierarchy
}

// NewModel bundles dimensions.
func NewModel(dims ...*Hierarchy) *Model { return &Model{Dims: dims} }

// State is one context state: a value per dimension, in model order.
type State []string

// Validate checks that the state matches the model.
func (m *Model) Validate(s State) error {
	if len(s) != len(m.Dims) {
		return fmt.Errorf("ctxpref: state has %d values, model has %d dimensions", len(s), len(m.Dims))
	}
	for i, v := range s {
		if !m.Dims[i].Has(v) {
			return fmt.Errorf("ctxpref: unknown value %q for dimension %s", v, m.Dims[i].Name)
		}
	}
	return nil
}

// Covers reports whether general covers specific in every dimension
// (the partial order of context states).
func (m *Model) Covers(general, specific State) bool {
	for i := range m.Dims {
		if !m.Dims[i].Covers(general[i], specific[i]) {
			return false
		}
	}
	return true
}

// Specificity is the total depth of the state (more = more specific).
func (m *Model) Specificity(s State) int {
	total := 0
	for i := range m.Dims {
		total += m.Dims[i].Depth(s[i])
	}
	return total
}

// Key renders the state canonically.
func (s State) Key() string { return strings.Join(s, "|") }

// Entry is one profile row: a context state plus the preference holding in
// it.
type Entry struct {
	State State
	Pref  hypre.ScoredPred
}

// Graph holds the nodes V_Pr of the contextual preference graph
// PG_Pr = (V_Pr, E_Pr): one node per distinct context state in the profile,
// with its preferences. Resolve reads coverage off the states directly, so
// the tight-cover edges E_Pr are not stored.
type Graph struct {
	model   *Model
	states  []State
	prefs   map[string][]hypre.ScoredPred
	indexOf map[string]int
}

// Build validates the entries and constructs the graph.
func Build(m *Model, entries []Entry) (*Graph, error) {
	g := &Graph{
		model:   m,
		prefs:   map[string][]hypre.ScoredPred{},
		indexOf: map[string]int{},
	}
	for _, e := range entries {
		if err := m.Validate(e.State); err != nil {
			return nil, err
		}
		k := e.State.Key()
		if _, seen := g.indexOf[k]; !seen {
			g.indexOf[k] = len(g.states)
			g.states = append(g.states, append(State(nil), e.State...))
		}
		g.prefs[k] = append(g.prefs[k], e.Pref)
	}
	return g, nil
}

// Resolve returns the preferences applicable to the query context: every
// profile state that covers the query qualifies, ordered most-specific
// first (ties by state key), with preferences inside a state ordered by
// descending intensity. This is the "most specific context wins" resolution
// rule of the contextual-preference literature.
func (g *Graph) Resolve(query State) ([]hypre.ScoredPred, error) {
	if err := g.model.Validate(query); err != nil {
		return nil, err
	}
	type cand struct {
		key  string
		spec int
	}
	var cands []cand
	for _, s := range g.states {
		if g.model.Covers(s, query) {
			cands = append(cands, cand{key: s.Key(), spec: g.model.Specificity(s)})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].spec != cands[j].spec {
			return cands[i].spec > cands[j].spec
		}
		return cands[i].key < cands[j].key
	})
	var out []hypre.ScoredPred
	for _, c := range cands {
		ps := append([]hypre.ScoredPred(nil), g.prefs[c.key]...)
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].Intensity > ps[j].Intensity })
		out = append(out, ps...)
	}
	return out, nil
}
