package graphdb

import (
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"hypre/internal/predicate"
)

// snapshot is the gob wire format. predicate.Value has unexported fields,
// so properties are transported as (kind, payload) records.
type snapshotValue struct {
	Kind uint8
	I    int64
	F    float64
	S    string
}

func encodeValue(v predicate.Value) snapshotValue {
	switch v.Kind() {
	case predicate.KindInt:
		return snapshotValue{Kind: 1, I: v.AsInt()}
	case predicate.KindFloat:
		return snapshotValue{Kind: 2, F: v.AsFloat()}
	case predicate.KindString:
		return snapshotValue{Kind: 3, S: v.AsString()}
	default:
		return snapshotValue{Kind: 0}
	}
}

func decodeValue(s snapshotValue) predicate.Value {
	switch s.Kind {
	case 1:
		return predicate.Int(s.I)
	case 2:
		return predicate.Float(s.F)
	case 3:
		return predicate.String(s.S)
	default:
		return predicate.Null()
	}
}

type snapshotNode struct {
	ID     int64
	Labels []string
	Keys   []string
	Vals   []snapshotValue
}

type snapshotEdge struct {
	ID    int64
	From  int64
	To    int64
	Label string
	Keys  []string
	Vals  []snapshotValue
}

type snapshotIndex struct {
	Label string
	Prop  string
}

type snapshotFile struct {
	Version  int
	NextNode int64
	NextEdge int64
	Nodes    []snapshotNode
	Edges    []snapshotEdge
	Indexes  []snapshotIndex
}

const snapshotVersion = 1

// Snapshot serializes the whole graph (nodes, edges, index definitions) to
// w in a stable, versioned gob format. Node and edge ids are preserved, so
// references held by callers stay valid after Restore.
func (g *Graph) Snapshot(w io.Writer) error {
	g.mu.RLock()
	defer g.mu.RUnlock()

	f := snapshotFile{
		Version:  snapshotVersion,
		NextNode: int64(g.nodes.len()),
		NextEdge: int64(g.edges.len()),
		Nodes:    make([]snapshotNode, g.nodes.len()),
		Edges:    make([]snapshotEdge, g.edges.len()),
	}
	for i := range g.nodes.len() {
		n := g.nodes.at(i)
		sn := snapshotNode{ID: int64(i), Labels: n.labels}
		sn.Keys, sn.Vals = g.encodeProps(n.props)
		f.Nodes[i] = sn
	}
	for i := range g.edges.len() {
		e := g.edges.at(i)
		se := snapshotEdge{ID: int64(i), From: int64(e.from), To: int64(e.to), Label: e.label}
		se.Keys, se.Vals = g.encodeProps(e.props)
		f.Edges[i] = se
	}
	for _, ix := range g.indexes {
		f.Indexes = append(f.Indexes, snapshotIndex{Label: ix.label, Prop: ix.prop})
	}
	sort.Slice(f.Indexes, func(i, j int) bool {
		if f.Indexes[i].Label != f.Indexes[j].Label {
			return f.Indexes[i].Label < f.Indexes[j].Label
		}
		return f.Indexes[i].Prop < f.Indexes[j].Prop
	})
	return gob.NewEncoder(w).Encode(f)
}

// encodeProps lists a record's properties ordered by key name.
func (g *Graph) encodeProps(ps propList) ([]string, []snapshotValue) {
	if len(ps) == 0 {
		return nil, nil
	}
	sorted := slices.Clone(ps)
	slices.SortFunc(sorted, func(a, b prop) int { return strings.Compare(g.keys[a.key], g.keys[b.key]) })
	keys := make([]string, len(ps))
	vals := make([]snapshotValue, len(ps))
	for i, p := range sorted {
		keys[i], vals[i] = g.keys[p.key], encodeValue(p.value())
	}
	return keys, vals
}

// decodeProps rebuilds a property list; a repeated key keeps its last value.
func (g *Graph) decodeProps(keys []string, vals []snapshotValue) (propList, error) {
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("%d keys but %d values", len(keys), len(vals))
	}
	var ps propList
	for i, k := range keys {
		ps, _, _ = ps.set(g.internKey(k), decodeValue(vals[i]))
	}
	return ps, nil
}

// Restore reads a snapshot and returns the reconstructed graph, rebuilding
// all declared indexes. Ids are slab positions, so the snapshot must list
// nodes and edges with ids 0..n-1 in order, its NextNode and NextEdge must
// equal those counts, and every edge must join two listed nodes; anything
// else is an error.
func Restore(r io.Reader) (*Graph, error) {
	var f snapshotFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("graphdb: restore: %w", err)
	}
	if f.Version != snapshotVersion {
		return nil, fmt.Errorf("graphdb: unsupported snapshot version %d", f.Version)
	}
	if f.NextNode != int64(len(f.Nodes)) || f.NextEdge != int64(len(f.Edges)) {
		return nil, fmt.Errorf("graphdb: restore: counters (next node %d, next edge %d) disagree with %d nodes and %d edges",
			f.NextNode, f.NextEdge, len(f.Nodes), len(f.Edges))
	}
	g := New()
	for i, sn := range f.Nodes {
		if sn.ID != int64(i) {
			return nil, fmt.Errorf("graphdb: restore: node %d listed at position %d", sn.ID, i)
		}
		ps, err := g.decodeProps(sn.Keys, sn.Vals)
		if err != nil {
			return nil, fmt.Errorf("graphdb: restore: node %d: %v", sn.ID, err)
		}
		g.nodes.push(nodeRec{labels: sortedLabels(sn.Labels), props: ps})
	}
	for i, se := range f.Edges {
		if se.ID != int64(i) {
			return nil, fmt.Errorf("graphdb: restore: edge %d listed at position %d", se.ID, i)
		}
		for _, end := range []int64{se.From, se.To} {
			if end < 0 || end >= int64(g.nodes.len()) {
				return nil, fmt.Errorf("graphdb: edge %d references missing node %d", se.ID, end)
			}
		}
		ps, err := g.decodeProps(se.Keys, se.Vals)
		if err != nil {
			return nil, fmt.Errorf("graphdb: restore: edge %d: %v", se.ID, err)
		}
		id := EdgeID(g.edges.push(edgeRec{from: NodeID(se.From), to: NodeID(se.To), label: se.Label, props: ps}))
		src, dst := g.nodes.at(int(se.From)), g.nodes.at(int(se.To))
		src.out = append(src.out, id)
		dst.in = append(dst.in, id)
	}
	for _, ix := range f.Indexes {
		g.CreateIndex(ix.Label, ix.Prop)
	}
	return g, nil
}
