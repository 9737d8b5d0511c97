package hypre

import (
	"fmt"
	"sort"
	"strconv"

	"hypre/internal/graphdb"
	"hypre/internal/predicate"
)

// Edge labels (§4.2): PREFERS carries the qualitative partial order; CYCLE
// marks an edge that would have closed a cycle; DISCARD marks an edge whose
// intensity constraint could not be satisfied. Only PREFERS edges are
// traversed.
const (
	LabelPrefers = "PREFERS"
	LabelCycle   = "CYCLE"
	LabelDiscard = "DISCARD"
)

// Node property names, mirroring Fig. 12.
const (
	propUID       = "uid"
	propPredicate = "predicate"
	propIntensity = "intensity"
	propSource    = "source"
	propFromQuant = "fromQuantitative"
)

// uidIndexLabel is the label+property index of §4.3.
const uidIndexLabel = "uidIndex"

// Source records the provenance of a node's intensity value.
type Source string

const (
	// SourceUser marks an intensity supplied directly by the user (a
	// quantitative preference).
	SourceUser Source = "user"
	// SourceComputed marks an intensity derived via Eq. 4.1/4.2.
	SourceComputed Source = "computed"
	// SourceDefault marks a DEFAULT_VALUE seed (§6.3.1).
	SourceDefault Source = "default"
)

// ConflictKind classifies the outcome of inserting a qualitative edge.
type ConflictKind int

const (
	// NoConflict: the edge was inserted as PREFERS.
	NoConflict ConflictKind = iota
	// ConflictCycle: the edge would close a PREFERS cycle; inserted as CYCLE.
	ConflictCycle
	// ConflictIncompatible: both endpoints are interior nodes with
	// incompatible intensities; inserted as DISCARD.
	ConflictIncompatible
)

// String names the conflict kind.
func (c ConflictKind) String() string {
	switch c {
	case NoConflict:
		return "none"
	case ConflictCycle:
		return "cycle"
	case ConflictIncompatible:
		return "incompatible"
	default:
		return "conflict(" + strconv.Itoa(int(c)) + ")"
	}
}

// DefaultStrategy selects how the DEFAULT_VALUE seed of Algorithm 1 is
// chosen per user (Table 12).
type DefaultStrategy int

const (
	// DefaultFixed always seeds with 0.5 ("default" row of Table 12).
	DefaultFixed DefaultStrategy = iota
	// DefaultMin seeds with the user's minimum provided intensity.
	DefaultMin
	// DefaultMinPos seeds with the minimum non-negative intensity, 0 if none.
	DefaultMinPos
	// DefaultMax seeds with the maximum provided intensity.
	DefaultMax
	// DefaultMaxPos seeds with the maximum intensity in [0, 1), 0 if none.
	DefaultMaxPos
	// DefaultAvg seeds with the average intensity (0.98 if the average is 1,
	// so propagation does not saturate every derived value at 1).
	DefaultAvg
	// DefaultAvgPos seeds with the average of non-negative intensities,
	// 0 if none.
	DefaultAvgPos
)

// String names the strategy as in Table 12.
func (d DefaultStrategy) String() string {
	switch d {
	case DefaultFixed:
		return "default"
	case DefaultMin:
		return "min"
	case DefaultMinPos:
		return "min_pos"
	case DefaultMax:
		return "max"
	case DefaultMaxPos:
		return "max_pos"
	case DefaultAvg:
		return "avg"
	case DefaultAvgPos:
		return "avg_pos"
	default:
		return "strategy(" + strconv.Itoa(int(d)) + ")"
	}
}

// AllDefaultStrategies lists every Table 12 strategy, for the ablation
// experiment.
func AllDefaultStrategies() []DefaultStrategy {
	return []DefaultStrategy{DefaultFixed, DefaultMin, DefaultMinPos,
		DefaultMax, DefaultMaxPos, DefaultAvg, DefaultAvgPos}
}

// Graph is the HYPRE preference graph: one graphdb store holding every
// user's profile, keyed by the uid property (§4.2 "we can easily create
// only one graph and, using the user_id property of a node, select all the
// nodes for a particular user").
//
// A Graph has a single writer: the Add* and Build methods must not run
// concurrently with each other or with readers.
type Graph struct {
	g        *graphdb.Graph
	strategy DefaultStrategy
	// byKey maps (uid, normalized predicate) to the node id, implementing
	// createOrReturnNodeId() without a graph scan.
	byKey map[nodeKey]graphdb.NodeID
	// canon memoizes canonical: raw predicate text -> its normalized form,
	// for valid predicates only.
	canon map[string]string
	// userSeen tracks the user-provided intensities per uid for the
	// DEFAULT_VALUE aggregates of Table 12.
	userSeen map[int64][]float64
}

// NewGraph returns an empty HYPRE graph using the given DEFAULT_VALUE
// strategy.
func NewGraph(strategy DefaultStrategy) *Graph {
	g := graphdb.New()
	g.CreateIndex(uidIndexLabel, propUID)
	return &Graph{
		g:        g,
		strategy: strategy,
		byKey:    make(map[nodeKey]graphdb.NodeID),
		canon:    make(map[string]string),
		userSeen: make(map[int64][]float64),
	}
}

// Store exposes the underlying graph store (for the Cypher layer and
// benchmarks).
func (h *Graph) Store() *graphdb.Graph { return h.g }

type nodeKey struct {
	uid  int64
	pred string
}

// canonical normalizes a predicate and checks that the normalized text
// parses, parsing each distinct raw string once per Graph. On error the
// normalized text is returned for the message, and nothing is cached.
func (h *Graph) canonical(raw string) (string, error) {
	if c, ok := h.canon[raw]; ok {
		return c, nil
	}
	c := predicate.Normalize(raw)
	if _, err := predicate.Parse(c); err != nil {
		return c, err
	}
	h.canon[raw] = c
	return c, nil
}

// createOrReturnNode implements createOrReturnNodeId() of Algorithm 1: it
// returns the existing node for (uid, predicate) or creates one without an
// intensity value.
func (h *Graph) createOrReturnNode(uid int64, pred string) graphdb.NodeID {
	key := nodeKey{uid, pred}
	if id, ok := h.byKey[key]; ok {
		return id
	}
	id := h.g.CreateNode(graphdb.NodeSpec{
		Labels: []string{uidIndexLabel},
		Props: graphdb.Props{
			propUID:       predicate.Int(uid),
			propPredicate: predicate.String(pred),
		},
	})
	h.byKey[key] = id
	return id
}

// AddQuantitative inserts a quantitative preference (Step 1 of the graph
// construction, §4.5). If the user already has a node for the predicate
// with a user-provided intensity, the two are averaged (Algorithm 1's
// duplicate rule); a computed or default intensity is overwritten by the
// user-provided one.
func (h *Graph) AddQuantitative(uid int64, pred string, intensity float64) (graphdb.NodeID, error) {
	if err := CheckQuantIntensity(intensity); err != nil {
		return 0, err
	}
	pred, err := h.canonical(pred)
	if err != nil {
		return 0, fmt.Errorf("hypre: invalid predicate %q: %v", pred, err)
	}
	id := h.createOrReturnNode(uid, pred)
	old, hasOld := h.intensity(id)
	src, _ := h.source(id)
	switch {
	case hasOld && src == SourceUser:
		intensity = (old + intensity) / 2
	default:
		// keep the fresh user value
	}
	h.setIntensity(id, intensity, SourceUser)
	h.g.SetProp(id, propFromQuant, predicate.Int(1))
	h.userSeen[uid] = append(h.userSeen[uid], intensity)
	return id, nil
}

// QuantPref is a (predicate, intensity) pair for batch insertion.
type QuantPref struct {
	UID       int64
	Pred      string
	Intensity float64
}

// AddQuantitativeBatch inserts many quantitative preferences, mirroring the
// 100k-row batch transactions of §6.3 Step 1. It returns the number
// inserted and the first error encountered (insertion continues past
// invalid entries, counting only successes).
func (h *Graph) AddQuantitativeBatch(prefs []QuantPref) (int, error) {
	var firstErr error
	n := 0
	for _, p := range prefs {
		if _, err := h.AddQuantitative(p.UID, p.Pred, p.Intensity); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		n++
	}
	return n, firstErr
}

// QualResult reports how a qualitative insertion was resolved.
type QualResult struct {
	LeftID   graphdb.NodeID
	RightID  graphdb.NodeID
	EdgeID   graphdb.EdgeID
	Conflict ConflictKind
	// LeftComputed / RightComputed report whether the insertion assigned a
	// new intensity to that endpoint.
	LeftComputed  bool
	RightComputed bool
}

// AddQualitative inserts a qualitative preference "left preferred over
// right with strength ql" for the user — Algorithm 1's per-edge step plus
// the three scenarios of §6.3 Step 2. Negative strengths are normalized by
// Proposition 7 (swap endpoints, negate strength).
func (h *Graph) AddQualitative(uid int64, left, right string, ql float64) (QualResult, error) {
	left, right, ql = NormalizeQualitative(left, right, ql)
	if err := CheckQualIntensity(ql); err != nil {
		return QualResult{}, err
	}
	left, err := h.canonical(left)
	if err != nil {
		return QualResult{}, fmt.Errorf("hypre: invalid left predicate %q: %v", left, err)
	}
	right, err = h.canonical(right)
	if err != nil {
		return QualResult{}, fmt.Errorf("hypre: invalid right predicate %q: %v", right, err)
	}
	if left == right {
		return QualResult{}, fmt.Errorf("hypre: qualitative preference endpoints are identical (%q)", left)
	}

	res := QualResult{
		LeftID:  h.createOrReturnNode(uid, left),
		RightID: h.createOrReturnNode(uid, right),
	}
	edgeProps := graphdb.Props{propIntensity: predicate.Float(ql)}

	// Conflict 1 (§6.2.3): the new edge would close a PREFERS cycle.
	if h.g.PathExists(res.RightID, res.LeftID, LabelPrefers) {
		eid, err := h.g.CreateEdge(res.LeftID, res.RightID, LabelCycle, edgeProps)
		res.EdgeID, res.Conflict = eid, ConflictCycle
		return res, err
	}

	li, hasL := h.intensity(res.LeftID)
	ri, hasR := h.intensity(res.RightID)
	switch {
	case !hasL && !hasR:
		// Scenario 3: two fresh nodes. Seed the right node with
		// DEFAULT_VALUE and lift the left node above it.
		seed := h.defaultValue(uid)
		h.setIntensity(res.RightID, seed, SourceDefault)
		h.setIntensity(res.LeftID, IntensityLeft(ql, seed), SourceComputed)
		res.LeftComputed, res.RightComputed = true, true
	case hasR && !hasL:
		// Scenario 2a: right known, compute left above it (Eq. 4.1).
		h.setIntensity(res.LeftID, IntensityLeft(ql, ri), SourceComputed)
		res.LeftComputed = true
	case hasL && !hasR:
		// Scenario 2b: left known, compute right below it (Eq. 4.2).
		h.setIntensity(res.RightID, IntensityRight(ql, li), SourceComputed)
		res.RightComputed = true
	default:
		// Scenario 1: both known. Consistent values need no recomputation;
		// incompatible values (Conflict 2 of §6.2.3) are repaired by
		// recomputing a leaf endpoint, or DISCARDed when both endpoints are
		// interior nodes (recomputing would propagate the conflict).
		if li < ri {
			switch {
			case h.degree(res.LeftID) == 0:
				h.setIntensity(res.LeftID, IntensityLeft(ql, ri), SourceComputed)
				res.LeftComputed = true
			case h.degree(res.RightID) == 0:
				h.setIntensity(res.RightID, IntensityRight(ql, li), SourceComputed)
				res.RightComputed = true
			default:
				eid, err := h.g.CreateEdge(res.LeftID, res.RightID, LabelDiscard, edgeProps)
				res.EdgeID, res.Conflict = eid, ConflictIncompatible
				return res, err
			}
		}
	}

	eid, err := h.g.CreateEdge(res.LeftID, res.RightID, LabelPrefers, edgeProps)
	res.EdgeID = eid
	return res, err
}

// QualPref is a qualitative preference row for batch insertion.
type QualPref struct {
	UID         int64
	Left, Right string
	Intensity   float64
}

// BuildResult summarizes a two-step graph construction (Algorithm 1 over a
// full workload).
type BuildResult struct {
	QuantInserted int
	QualInserted  int
	Cycles        int
	Discards      int
}

// Build runs Algorithm 1: Step 1 inserts all quantitative preferences,
// Step 2 inserts all qualitative preferences one at a time, resolving
// conflicts as it goes.
func (h *Graph) Build(quant []QuantPref, qual []QualPref) (BuildResult, error) {
	var res BuildResult
	n, err := h.AddQuantitativeBatch(quant)
	if err != nil {
		return res, err
	}
	res.QuantInserted = n
	for _, q := range qual {
		r, err := h.AddQualitative(q.UID, q.Left, q.Right, q.Intensity)
		if err != nil {
			return res, err
		}
		res.QualInserted++
		switch r.Conflict {
		case ConflictCycle:
			res.Cycles++
		case ConflictIncompatible:
			res.Discards++
		}
	}
	return res, nil
}

// degree is the total PREFERS degree (in + out) of a node — Algorithm 1's
// degree() test for whether a node has other connections.
func (h *Graph) degree(id graphdb.NodeID) int {
	return h.g.InDegree(id, LabelPrefers) + h.g.OutDegree(id, LabelPrefers)
}

func (h *Graph) intensity(id graphdb.NodeID) (float64, bool) {
	v, ok := h.g.Prop(id, propIntensity)
	if !ok {
		return 0, false
	}
	return v.AsFloat(), true
}

func (h *Graph) source(id graphdb.NodeID) (Source, bool) {
	v, ok := h.g.Prop(id, propSource)
	if !ok {
		return "", false
	}
	return Source(v.AsString()), true
}

func (h *Graph) setIntensity(id graphdb.NodeID, v float64, src Source) {
	h.g.SetProp(id, propIntensity, predicate.Float(ClampIntensity(v)))
	h.g.SetProp(id, propSource, predicate.String(string(src)))
}

// defaultValue picks the DEFAULT_VALUE seed for a user according to the
// configured Table 12 strategy, over the intensities the user has provided
// so far.
func (h *Graph) defaultValue(uid int64) float64 {
	vals := h.userSeen[uid]
	switch h.strategy {
	case DefaultFixed:
		return 0.5
	case DefaultMin:
		if len(vals) == 0 {
			return 0.5
		}
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m
	case DefaultMinPos:
		m, found := 0.0, false
		for _, v := range vals {
			if v >= 0 && (!found || v < m) {
				m, found = v, true
			}
		}
		return m
	case DefaultMax:
		if len(vals) == 0 {
			return 0.5
		}
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m
	case DefaultMaxPos:
		m, found := 0.0, false
		for _, v := range vals {
			if v >= 0 && v < 1 && (!found || v > m) {
				m, found = v, true
			}
		}
		return m
	case DefaultAvg:
		if len(vals) == 0 {
			return 0.98
		}
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		avg := sum / float64(len(vals))
		if avg >= 1 {
			return 0.98
		}
		return avg
	case DefaultAvgPos:
		sum, n := 0.0, 0
		for _, v := range vals {
			if v >= 0 {
				sum += v
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	default:
		return 0.5
	}
}

// NodeInfo is the exported view of one preference node.
type NodeInfo struct {
	ID           graphdb.NodeID
	UID          int64
	Predicate    string
	Intensity    float64
	HasIntensity bool
	Source       Source
	FromQuant    bool
}

// Node returns the info for one node id.
func (h *Graph) Node(id graphdb.NodeID) (NodeInfo, bool) {
	uidv, ok := h.g.Prop(id, propUID)
	if !ok {
		return NodeInfo{}, false
	}
	info := NodeInfo{ID: id, UID: uidv.AsInt()}
	if v, ok := h.g.Prop(id, propPredicate); ok {
		info.Predicate = v.AsString()
	}
	if v, ok := h.g.Prop(id, propIntensity); ok {
		info.Intensity = v.AsFloat()
		info.HasIntensity = true
	}
	if s, ok := h.source(id); ok {
		info.Source = s
	}
	if v, ok := h.g.Prop(id, propFromQuant); ok && v.AsInt() == 1 {
		info.FromQuant = true
	}
	return info, true
}

// UserNodes returns all preference nodes of a user via the uid index,
// sorted by descending intensity (nodes without intensity last), ties by
// node id — the ordered retrieval of §4.3.
func (h *Graph) UserNodes(uid int64) []NodeInfo {
	ids := h.g.FindNodes(uidIndexLabel, propUID, predicate.Int(uid))
	out := make([]NodeInfo, 0, len(ids))
	for _, id := range ids {
		if info, ok := h.Node(id); ok {
			out = append(out, info)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.HasIntensity != b.HasIntensity:
			return a.HasIntensity
		case a.Intensity != b.Intensity:
			return a.Intensity > b.Intensity
		default:
			return a.ID < b.ID
		}
	})
	return out
}

// Stats summarizes the graph for Table 11-style reporting.
type Stats struct {
	Nodes    int
	Edges    int
	Prefers  int
	Cycles   int
	Discards int
}

// GraphStats counts nodes and per-label edges.
func (h *Graph) GraphStats() Stats {
	s := Stats{Nodes: h.g.NodeCount(), Edges: h.g.EdgeCount()}
	h.g.ForEachNode(func(id graphdb.NodeID, _ []string, _ graphdb.Props) bool {
		for _, e := range h.g.OutEdges(id, "") {
			switch e.Label {
			case LabelPrefers:
				s.Prefers++
			case LabelCycle:
				s.Cycles++
			case LabelDiscard:
				s.Discards++
			}
		}
		return true
	})
	return s
}
