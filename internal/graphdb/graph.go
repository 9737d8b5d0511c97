// Package graphdb is an embedded property-graph store standing in for the
// Neo4j 2.0 instance the dissertation used. It provides what HYPRE needs
// from a graph engine: nodes with typed properties and labels, directed
// labeled edges, a label+property index (the uidIndex(uid) scheme of §4.3),
// batch insertion, degree queries, label-filtered reachability (cycle
// checks), and a small Cypher-like query language (see cypher.go).
//
// Storage layout. Node and edge ids are dense: each is assigned in creation
// order from 0, never reused, and never freed, since nothing deletes a node
// or an edge. So a record lives at its id's position in a slab (see slab):
// a node holds its sorted labels, its properties and the ids of its out-
// and in-edges; an edge holds its endpoints, label and properties.
// Properties are small inline lists with interned key names (see prop),
// not per-record maps.
package graphdb

import (
	"fmt"
	"slices"
	"sync"

	"hypre/internal/predicate"
)

// NodeID identifies a node. IDs are assigned sequentially, like Neo4j's
// internal ids.
type NodeID int64

// EdgeID identifies an edge.
type EdgeID int64

// Props is a property bag. Values are the same typed scalars the relational
// engine uses.
type Props map[string]predicate.Value

// nodeRec is one node; its id is its position in Graph.nodes.
type nodeRec struct {
	labels []string // sorted, no duplicates
	props  propList
	out    []EdgeID
	in     []EdgeID
}

func (n *nodeRec) hasLabel(l string) bool {
	_, ok := slices.BinarySearch(n.labels, l)
	return ok
}

// edgeRec is one edge; its id is its position in Graph.edges.
type edgeRec struct {
	from  NodeID
	to    NodeID
	label string
	props propList
}

// propIndex maps a property value (by Value.Key) to the nodes that carry
// label and hold that value under prop.
type propIndex struct {
	label string
	prop  string
	key   keyID // prop's id
	ids   map[string][]NodeID
}

// Graph is the store. All methods are safe for concurrent use: readers
// share mu, and every write, including each append to a slab, holds it
// exclusively.
type Graph struct {
	mu      sync.RWMutex
	nodes   slab[nodeRec]
	edges   slab[edgeRec]
	indexes []propIndex
	// keys and keyIDs intern property key names (see keyID).
	keys   []string
	keyIDs map[string]keyID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{keyIDs: make(map[string]keyID)}
}

// node returns the record for id, or nil if there is none. Callers hold mu.
func (g *Graph) node(id NodeID) *nodeRec {
	if id < 0 || int64(id) >= int64(g.nodes.len()) {
		return nil
	}
	return g.nodes.at(int(id))
}

// edge returns the record for id, or nil if there is none. Callers hold mu.
func (g *Graph) edge(id EdgeID) *edgeRec {
	if id < 0 || int64(id) >= int64(g.edges.len()) {
		return nil
	}
	return g.edges.at(int(id))
}

// sortedLabels copies labels sorted and without duplicates.
func sortedLabels(labels []string) []string {
	if len(labels) == 0 {
		return nil
	}
	out := slices.Clone(labels)
	slices.Sort(out)
	return slices.Compact(out)
}

// NodeSpec describes a node to create.
type NodeSpec struct {
	Labels []string
	Props  Props
}

// CreateNode inserts one node and returns its id.
func (g *Graph) CreateNode(spec NodeSpec) NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.createNodeLocked(spec)
}

// CreateNodes batch-inserts nodes under a single lock acquisition — the
// 1M-batch insertion mode of Fig. 13 / Table 11.
func (g *Graph) CreateNodes(specs []NodeSpec) []NodeID {
	g.mu.Lock()
	defer g.mu.Unlock()
	ids := make([]NodeID, len(specs))
	for i, s := range specs {
		ids[i] = g.createNodeLocked(s)
	}
	return ids
}

func (g *Graph) createNodeLocked(spec NodeSpec) NodeID {
	// Nodes tend to gain properties after creation, so leave room for two.
	id := NodeID(g.nodes.push(nodeRec{labels: sortedLabels(spec.Labels), props: g.propsFrom(spec.Props, 2)}))
	n := g.nodes.at(int(id))
	for _, ix := range g.indexes {
		if n.hasLabel(ix.label) {
			if v, ok := n.props.get(ix.key); ok {
				ix.ids[v.Key()] = append(ix.ids[v.Key()], id)
			}
		}
	}
	return id
}

// HasNode reports whether id exists.
func (g *Graph) HasNode(id NodeID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.node(id) != nil
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.nodes.len()
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges.len()
}

// Prop returns a node property.
func (g *Graph) Prop(id NodeID, key string) (predicate.Value, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.node(id)
	k, ok := g.keyIDs[key]
	if n == nil || !ok {
		return predicate.Null(), false
	}
	return n.props.get(k)
}

// SetProp sets a node property, maintaining any index on it.
func (g *Graph) SetProp(id NodeID, key string, v predicate.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := g.node(id)
	if n == nil {
		return fmt.Errorf("graphdb: no node %d", id)
	}
	k := g.internKey(key)
	var old predicate.Value
	var had bool
	n.props, old, had = n.props.set(k, v)
	for _, ix := range g.indexes {
		if ix.key != k || !n.hasLabel(ix.label) {
			continue
		}
		if had {
			ix.ids[old.Key()] = removeID(ix.ids[old.Key()], id)
		}
		ix.ids[v.Key()] = append(ix.ids[v.Key()], id)
	}
	return nil
}

// CreateEdge inserts a directed edge from -> to with a label and optional
// properties.
func (g *Graph) CreateEdge(from, to NodeID, label string, props Props) (EdgeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	src, dst := g.node(from), g.node(to)
	if src == nil {
		return 0, fmt.Errorf("graphdb: no node %d", from)
	}
	if dst == nil {
		return 0, fmt.Errorf("graphdb: no node %d", to)
	}
	id := EdgeID(g.edges.push(edgeRec{from: from, to: to, label: label, props: g.propsFrom(props, 0)}))
	src.out = append(src.out, id)
	dst.in = append(dst.in, id)
	return id, nil
}

// Edge is the exported view of an edge.
type Edge struct {
	ID    EdgeID
	From  NodeID
	To    NodeID
	Label string
	Props Props
}

// exportEdge returns the public view of edge id. Callers hold mu.
func (g *Graph) exportEdge(id EdgeID) Edge {
	e := g.edges.at(int(id))
	return Edge{ID: id, From: e.from, To: e.to, Label: e.label, Props: g.exportProps(e.props)}
}

// OutEdges returns edges leaving id, in creation order; label "" means any
// label.
func (g *Graph) OutEdges(id NodeID, label string) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := g.node(id)
	if n == nil {
		return nil
	}
	var out []Edge
	for _, eid := range n.out {
		if e := g.edge(eid); label == "" || e.label == label {
			out = append(out, g.exportEdge(eid))
		}
	}
	return out
}

// OutDegree counts edges with the label leaving id.
func (g *Graph) OutDegree(id NodeID, label string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if n := g.node(id); n != nil {
		return g.countEdges(n.out, label)
	}
	return 0
}

// InDegree counts edges with the label entering id.
func (g *Graph) InDegree(id NodeID, label string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if n := g.node(id); n != nil {
		return g.countEdges(n.in, label)
	}
	return 0
}

func (g *Graph) countEdges(ids []EdgeID, label string) int {
	if label == "" {
		return len(ids)
	}
	n := 0
	for _, eid := range ids {
		if g.edge(eid).label == label {
			n++
		}
	}
	return n
}

// PathExists reports whether `to` is reachable from `from` by following
// edges with the given label (BFS). Algorithm 1 uses it to detect that a new
// qualitative edge would close a cycle.
func (g *Graph) PathExists(from, to NodeID, label string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if from == to {
		return true
	}
	if g.node(from) == nil {
		return false
	}
	seen := map[NodeID]bool{from: true}
	queue := []NodeID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, eid := range g.node(cur).out {
			e := g.edge(eid)
			if label != "" && e.label != label {
				continue
			}
			if e.to == to {
				return true
			}
			if !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return false
}

// CreateIndex builds an index over nodes carrying label on property prop,
// mirroring Neo4j's label+property schema indexes (the uidIndex(uid) of
// §4.3). Existing nodes are indexed immediately; later inserts and updates
// maintain it.
func (g *Graph) CreateIndex(label, prop string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.index(label, prop) != nil {
		return
	}
	k := g.internKey(prop)
	idx := make(map[string][]NodeID)
	for i := range g.nodes.len() {
		n := g.nodes.at(i)
		if n.hasLabel(label) {
			if v, ok := n.props.get(k); ok {
				idx[v.Key()] = append(idx[v.Key()], NodeID(i))
			}
		}
	}
	g.indexes = append(g.indexes, propIndex{label: label, prop: prop, key: k, ids: idx})
}

// index returns the index on (label, prop), or nil. Callers hold mu.
func (g *Graph) index(label, prop string) *propIndex {
	for i := range g.indexes {
		if ix := &g.indexes[i]; ix.label == label && ix.prop == prop {
			return ix
		}
	}
	return nil
}

// FindNodes returns the ids of nodes with the label whose property equals
// v, in id order. With an index on (label, prop) this is a hash lookup;
// otherwise it scans.
func (g *Graph) FindNodes(label, prop string, v predicate.Value) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if ix := g.index(label, prop); ix != nil {
		out := slices.Clone(ix.ids[v.Key()])
		slices.Sort(out)
		return out
	}
	k, ok := g.keyIDs[prop]
	if !ok {
		return nil
	}
	var out []NodeID
	for i := range g.nodes.len() {
		n := g.nodes.at(i)
		if n.hasLabel(label) {
			if pv, ok := n.props.get(k); ok && pv.Equal(v) {
				out = append(out, NodeID(i))
			}
		}
	}
	return out
}

// ForEachNode calls fn for every node in id order with its sorted labels
// and a cloned property bag; returning false stops the iteration. Nodes
// created during the walk are not visited; the lock is not held while fn
// runs, so fn may call back into the graph.
func (g *Graph) ForEachNode(fn func(id NodeID, labels []string, props Props) bool) {
	g.mu.RLock()
	n := g.nodes.len()
	g.mu.RUnlock()
	for i := range n {
		g.mu.RLock()
		rec := g.nodes.at(i)
		labels := slices.Clone(rec.labels)
		props := g.exportProps(rec.props)
		g.mu.RUnlock()
		if !fn(NodeID(i), labels, props) {
			return
		}
	}
}

func removeID(ids []NodeID, id NodeID) []NodeID {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
