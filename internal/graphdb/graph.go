// Package graphdb is an embedded property-graph store standing in for the
// Neo4j 2.0 instance the dissertation used. It provides what HYPRE needs
// from a graph engine: nodes with typed properties and labels, directed
// labeled edges, a label+property index (the uidIndex(uid) scheme of §4.3),
// batch insertion, degree queries, label-filtered reachability (cycle
// checks), and a small Cypher-like query language (see cypher.go).
package graphdb

import (
	"fmt"
	"sort"
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

func (p Props) clone() Props {
	c := make(Props, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

type nodeRec struct {
	id     NodeID
	labels map[string]bool
	props  Props
}

type edgeRec struct {
	id    EdgeID
	from  NodeID
	to    NodeID
	label string
	props Props
}

type indexKey struct {
	label string
	prop  string
}

// Graph is the store. All methods are safe for concurrent use.
type Graph struct {
	mu       sync.RWMutex
	nodes    map[NodeID]*nodeRec
	edges    map[EdgeID]*edgeRec
	out      map[NodeID][]*edgeRec
	in       map[NodeID][]*edgeRec
	indexes  map[indexKey]map[string][]NodeID
	nextNode NodeID
	nextEdge EdgeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes:   make(map[NodeID]*nodeRec),
		edges:   make(map[EdgeID]*edgeRec),
		out:     make(map[NodeID][]*edgeRec),
		in:      make(map[NodeID][]*edgeRec),
		indexes: make(map[indexKey]map[string][]NodeID),
	}
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
	id := g.nextNode
	g.nextNode++
	rec := &nodeRec{id: id, labels: make(map[string]bool, len(spec.Labels)), props: spec.Props.clone()}
	for _, l := range spec.Labels {
		rec.labels[l] = true
	}
	g.nodes[id] = rec
	for key, idx := range g.indexes {
		if rec.labels[key.label] {
			if v, ok := rec.props[key.prop]; ok {
				idx[v.Key()] = append(idx[v.Key()], id)
			}
		}
	}
	return id
}

// HasNode reports whether id exists.
func (g *Graph) HasNode(id NodeID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.nodes[id]
	return ok
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.nodes)
}

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// Prop returns a node property.
func (g *Graph) Prop(id NodeID, key string) (predicate.Value, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return predicate.Null(), false
	}
	v, ok := n.props[key]
	return v, ok
}

// SetProp sets a node property, maintaining any index on it.
func (g *Graph) SetProp(id NodeID, key string, v predicate.Value) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("graphdb: no node %d", id)
	}
	old, had := n.props[key]
	n.props[key] = v
	for ik, idx := range g.indexes {
		if ik.prop != key || !n.labels[ik.label] {
			continue
		}
		if had {
			idx[old.Key()] = removeID(idx[old.Key()], id)
		}
		idx[v.Key()] = append(idx[v.Key()], id)
	}
	return nil
}

// DeleteProp removes a node property (used when an intensity value is
// retracted).
func (g *Graph) DeleteProp(id NodeID, key string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("graphdb: no node %d", id)
	}
	old, had := n.props[key]
	if !had {
		return nil
	}
	delete(n.props, key)
	for ik, idx := range g.indexes {
		if ik.prop == key && n.labels[ik.label] {
			idx[old.Key()] = removeID(idx[old.Key()], id)
		}
	}
	return nil
}

// Labels returns the node's labels, sorted.
func (g *Graph) Labels(id NodeID) []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n, ok := g.nodes[id]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(n.labels))
	for l := range n.labels {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// AddLabel attaches a label to an existing node, indexing it if an index on
// (label, prop) exists and the node has prop.
func (g *Graph) AddLabel(id NodeID, label string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	n, ok := g.nodes[id]
	if !ok {
		return fmt.Errorf("graphdb: no node %d", id)
	}
	if n.labels[label] {
		return nil
	}
	n.labels[label] = true
	for ik, idx := range g.indexes {
		if ik.label != label {
			continue
		}
		if v, ok := n.props[ik.prop]; ok {
			idx[v.Key()] = append(idx[v.Key()], id)
		}
	}
	return nil
}

// CreateEdge inserts a directed edge from -> to with a label and optional
// properties.
func (g *Graph) CreateEdge(from, to NodeID, label string, props Props) (EdgeID, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.nodes[from]; !ok {
		return 0, fmt.Errorf("graphdb: no node %d", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return 0, fmt.Errorf("graphdb: no node %d", to)
	}
	id := g.nextEdge
	g.nextEdge++
	e := &edgeRec{id: id, from: from, to: to, label: label, props: props.clone()}
	g.edges[id] = e
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
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

func exportEdge(e *edgeRec) Edge {
	return Edge{ID: e.id, From: e.from, To: e.to, Label: e.label, Props: e.props.clone()}
}

// EdgeByID returns the edge with the given id.
func (g *Graph) EdgeByID(id EdgeID) (Edge, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.edges[id]
	if !ok {
		return Edge{}, false
	}
	return exportEdge(e), true
}

// SetEdgeLabel relabels an edge — how HYPRE turns a DISCARD edge back into
// PREFERS when intensities change (§6.2.3).
func (g *Graph) SetEdgeLabel(id EdgeID, label string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("graphdb: no edge %d", id)
	}
	e.label = label
	return nil
}

// OutEdges returns edges leaving id; label "" means any label.
func (g *Graph) OutEdges(id NodeID, label string) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return filterEdges(g.out[id], label)
}

func filterEdges(es []*edgeRec, label string) []Edge {
	var out []Edge
	for _, e := range es {
		if label == "" || e.label == label {
			out = append(out, exportEdge(e))
		}
	}
	return out
}

// OutDegree counts edges with the label leaving id.
func (g *Graph) OutDegree(id NodeID, label string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return countEdges(g.out[id], label)
}

// InDegree counts edges with the label entering id.
func (g *Graph) InDegree(id NodeID, label string) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return countEdges(g.in[id], label)
}

func countEdges(es []*edgeRec, label string) int {
	n := 0
	for _, e := range es {
		if label == "" || e.label == label {
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
	seen := map[NodeID]bool{from: true}
	queue := []NodeID{from}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range g.out[cur] {
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
	key := indexKey{label: label, prop: prop}
	if _, exists := g.indexes[key]; exists {
		return
	}
	idx := make(map[string][]NodeID)
	for id, n := range g.nodes {
		if n.labels[label] {
			if v, ok := n.props[prop]; ok {
				idx[v.Key()] = append(idx[v.Key()], id)
			}
		}
	}
	for _, ids := range idx {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	g.indexes[key] = idx
}

// FindNodes returns the ids of nodes with the label whose property equals v.
// With an index on (label, prop) this is a hash lookup; otherwise it scans.
func (g *Graph) FindNodes(label, prop string, v predicate.Value) []NodeID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if idx, ok := g.indexes[indexKey{label: label, prop: prop}]; ok {
		ids := idx[v.Key()]
		out := make([]NodeID, len(ids))
		copy(out, ids)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	var out []NodeID
	for id, n := range g.nodes {
		if n.labels[label] {
			if pv, ok := n.props[prop]; ok && pv.Equal(v) {
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ForEachNode calls fn for every node (in unspecified order) with a cloned
// property bag; returning false stops the iteration.
func (g *Graph) ForEachNode(fn func(id NodeID, labels []string, props Props) bool) {
	g.mu.RLock()
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	g.mu.RUnlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		g.mu.RLock()
		n, ok := g.nodes[id]
		if !ok {
			g.mu.RUnlock()
			continue
		}
		labels := make([]string, 0, len(n.labels))
		for l := range n.labels {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		props := n.props.clone()
		g.mu.RUnlock()
		if !fn(id, labels, props) {
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
