package graphdb

import (
	"testing"
	"testing/quick"

	"hypre/internal/predicate"
)

func props(kv ...any) Props {
	p := Props{}
	for i := 0; i+1 < len(kv); i += 2 {
		k := kv[i].(string)
		switch v := kv[i+1].(type) {
		case int:
			p[k] = predicate.Int(int64(v))
		case float64:
			p[k] = predicate.Float(v)
		case string:
			p[k] = predicate.String(v)
		default:
			panic("bad prop")
		}
	}
	return p
}

func TestCreateNodeAndProps(t *testing.T) {
	g := New()
	id := g.CreateNode(NodeSpec{Labels: []string{"uidIndex"}, Props: props("uid", 2, "predicate", "venue=\"VLDB\"", "intensity", 0.5)})
	if !g.HasNode(id) {
		t.Fatal("node missing")
	}
	if v, ok := g.Prop(id, "uid"); !ok || v.AsInt() != 2 {
		t.Errorf("uid = %v", v)
	}
	if v, ok := g.Prop(id, "intensity"); !ok || v.AsFloat() != 0.5 {
		t.Errorf("intensity = %v", v)
	}
	if _, ok := g.Prop(id, "missing"); ok {
		t.Error("missing prop resolved")
	}
	if g.NodeCount() != 1 {
		t.Errorf("NodeCount = %d", g.NodeCount())
	}
}

func TestPropIsolation(t *testing.T) {
	g := New()
	p := props("uid", 2)
	id := g.CreateNode(NodeSpec{Props: p})
	p["uid"] = predicate.Int(99) // caller mutation must not leak in
	if v, _ := g.Prop(id, "uid"); v.AsInt() != 2 {
		t.Errorf("props not cloned: %v", v)
	}
}

func TestBatchCreateNodes(t *testing.T) {
	g := New()
	specs := make([]NodeSpec, 1000)
	for i := range specs {
		specs[i] = NodeSpec{Labels: []string{"uidIndex"}, Props: props("uid", i%10)}
	}
	ids := g.CreateNodes(specs)
	if len(ids) != 1000 || g.NodeCount() != 1000 {
		t.Fatalf("batch insert: %d ids, %d nodes", len(ids), g.NodeCount())
	}
	// IDs must be dense and sequential like Neo4j's.
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1]+1 {
			t.Fatalf("non-sequential ids at %d", i)
		}
	}
}

func TestSetPropAndDelete(t *testing.T) {
	g := New()
	id := g.CreateNode(NodeSpec{Props: props("intensity", 0.3)})
	if err := g.SetProp(id, "intensity", predicate.Float(0.8)); err != nil {
		t.Fatal(err)
	}
	if v, _ := g.Prop(id, "intensity"); v.AsFloat() != 0.8 {
		t.Errorf("after set: %v", v)
	}
	if err := g.SetProp(999, "x", predicate.Int(1)); err == nil {
		t.Error("SetProp on missing node should fail")
	}
}

func TestEdgesAndDegrees(t *testing.T) {
	g := New()
	a := g.CreateNode(NodeSpec{})
	b := g.CreateNode(NodeSpec{})
	c := g.CreateNode(NodeSpec{})
	if _, err := g.CreateEdge(a, b, "PREFERS", props("intensity", 0.8)); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreateEdge(a, c, "DISCARD", nil); err != nil {
		t.Fatal(err)
	}
	if g.OutDegree(a, "PREFERS") != 1 || g.OutDegree(a, "") != 2 {
		t.Errorf("out degrees: %d / %d", g.OutDegree(a, "PREFERS"), g.OutDegree(a, ""))
	}
	if g.InDegree(b, "PREFERS") != 1 || g.InDegree(c, "PREFERS") != 0 {
		t.Errorf("in degrees wrong")
	}
	es := g.OutEdges(a, "PREFERS")
	if len(es) != 1 || es[0].To != b || es[0].Props["intensity"].AsFloat() != 0.8 {
		t.Errorf("OutEdges = %+v", es)
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d", g.EdgeCount())
	}
	if _, err := g.CreateEdge(a, 999, "X", nil); err == nil {
		t.Error("edge to missing node should fail")
	}
	if _, err := g.CreateEdge(999, a, "X", nil); err == nil {
		t.Error("edge from missing node should fail")
	}
}

func TestPathExists(t *testing.T) {
	g := New()
	n := make([]NodeID, 5)
	for i := range n {
		n[i] = g.CreateNode(NodeSpec{})
	}
	g.CreateEdge(n[0], n[1], "PREFERS", nil)
	g.CreateEdge(n[1], n[2], "PREFERS", nil)
	g.CreateEdge(n[2], n[3], "DISCARD", nil)
	if !g.PathExists(n[0], n[2], "PREFERS") {
		t.Error("0->2 via PREFERS should exist")
	}
	if g.PathExists(n[0], n[3], "PREFERS") {
		t.Error("0->3 must not traverse DISCARD edges")
	}
	if !g.PathExists(n[0], n[3], "") {
		t.Error("0->3 with any-label should exist")
	}
	if g.PathExists(n[2], n[0], "PREFERS") {
		t.Error("reverse path should not exist")
	}
	if !g.PathExists(n[4], n[4], "PREFERS") {
		t.Error("self path should exist trivially")
	}
}

func TestPathExistsCycleSafety(t *testing.T) {
	g := New()
	a := g.CreateNode(NodeSpec{})
	b := g.CreateNode(NodeSpec{})
	g.CreateEdge(a, b, "PREFERS", nil)
	g.CreateEdge(b, a, "PREFERS", nil)
	// Must terminate despite the cycle.
	if !g.PathExists(a, b, "PREFERS") {
		t.Error("path in cycle")
	}
	c := g.CreateNode(NodeSpec{})
	if g.PathExists(a, c, "PREFERS") {
		t.Error("unreachable node found")
	}
}

func TestFindNodesScanVsIndex(t *testing.T) {
	g := New()
	var want []NodeID
	for i := 0; i < 50; i++ {
		id := g.CreateNode(NodeSpec{Labels: []string{"uidIndex"}, Props: props("uid", i%5)})
		if i%5 == 2 {
			want = append(want, id)
		}
	}
	scan := g.FindNodes("uidIndex", "uid", predicate.Int(2))
	g.CreateIndex("uidIndex", "uid")
	idx := g.FindNodes("uidIndex", "uid", predicate.Int(2))
	if len(scan) != len(want) || len(idx) != len(want) {
		t.Fatalf("scan=%d idx=%d want=%d", len(scan), len(idx), len(want))
	}
	for i := range scan {
		if scan[i] != idx[i] || scan[i] != want[i] {
			t.Fatalf("mismatch at %d: scan=%v idx=%v want=%v", i, scan, idx, want)
		}
	}
}

func TestIndexMaintainedOnInsertUpdateLabel(t *testing.T) {
	g := New()
	g.CreateIndex("uidIndex", "uid")
	id := g.CreateNode(NodeSpec{Labels: []string{"uidIndex"}, Props: props("uid", 7)})
	if got := g.FindNodes("uidIndex", "uid", predicate.Int(7)); len(got) != 1 || got[0] != id {
		t.Fatalf("index after insert: %v", got)
	}
	g.SetProp(id, "uid", predicate.Int(8))
	if got := g.FindNodes("uidIndex", "uid", predicate.Int(7)); len(got) != 0 {
		t.Errorf("stale index entry: %v", got)
	}
	if got := g.FindNodes("uidIndex", "uid", predicate.Int(8)); len(got) != 1 {
		t.Errorf("index not updated: %v", got)
	}
	// A node without the label stays out of the index.
	g.CreateNode(NodeSpec{Props: props("uid", 8)})
	if got := g.FindNodes("uidIndex", "uid", predicate.Int(8)); len(got) != 1 {
		t.Errorf("unlabeled node indexed: %v", got)
	}
	// Re-creating the same index is a no-op.
	g.CreateIndex("uidIndex", "uid")
	if got := g.FindNodes("uidIndex", "uid", predicate.Int(8)); len(got) != 1 {
		t.Errorf("re-index broke entries: %v", got)
	}
}

func TestForEachNodeOrderAndStop(t *testing.T) {
	g := New()
	for i := 0; i < 10; i++ {
		g.CreateNode(NodeSpec{Props: props("i", i)})
	}
	var seen []NodeID
	g.ForEachNode(func(id NodeID, _ []string, _ Props) bool {
		seen = append(seen, id)
		return len(seen) < 4
	})
	if len(seen) != 4 {
		t.Fatalf("early stop failed: %d", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatal("iteration not in id order")
		}
	}
}

// Property: reachability is transitive on a random chain with random extra
// edges.
func TestPathExistsTransitiveProperty(t *testing.T) {
	f := func(extra []uint8) bool {
		g := New()
		const n = 8
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.CreateNode(NodeSpec{})
		}
		for i := 0; i+1 < n; i++ {
			g.CreateEdge(ids[i], ids[i+1], "P", nil)
		}
		for _, e := range extra {
			from := int(e>>4) % n
			to := int(e&0xF) % n
			g.CreateEdge(ids[from], ids[to], "P", nil)
		}
		// Chain guarantees i -> j for i <= j.
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if !g.PathExists(ids[i], ids[j], "P") {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
