package graphdb

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypre/internal/predicate"
)

func TestSnapshotRoundTrip(t *testing.T) {
	g := New()
	g.CreateIndex("uidIndex", "uid")
	a := g.CreateNode(NodeSpec{Labels: []string{"uidIndex"},
		Props: props("uid", 2, "predicate", `venue="VLDB"`, "intensity", 0.5)})
	b := g.CreateNode(NodeSpec{Labels: []string{"uidIndex"},
		Props: props("uid", 2, "predicate", `venue="ICDE"`)})
	c := g.CreateNode(NodeSpec{Props: props("uid", 3)})
	g.CreateEdge(a, b, "PREFERS", props("intensity", 0.3))
	g.CreateEdge(b, c, "DISCARD", nil)

	var buf bytes.Buffer
	if err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if r.NodeCount() != 3 || r.EdgeCount() != 2 {
		t.Fatalf("restored %d nodes %d edges", r.NodeCount(), r.EdgeCount())
	}
	// Properties and ids preserved.
	if v, ok := r.Prop(a, "intensity"); !ok || v.AsFloat() != 0.5 {
		t.Errorf("intensity = %v", v)
	}
	if v, ok := r.Prop(a, "predicate"); !ok || v.AsString() != `venue="VLDB"` {
		t.Errorf("predicate = %v", v)
	}
	// Labels preserved.
	if ls := r.Labels(a); len(ls) != 1 || ls[0] != "uidIndex" {
		t.Errorf("labels = %v", ls)
	}
	// Edges with labels and props preserved.
	es := r.OutEdges(a, "PREFERS")
	if len(es) != 1 || es[0].To != b || es[0].Props["intensity"].AsFloat() != 0.3 {
		t.Errorf("edges = %+v", es)
	}
	if r.OutDegree(b, "DISCARD") != 1 {
		t.Error("DISCARD edge lost")
	}
	// Index definitions rebuilt.
	if got := r.FindNodes("uidIndex", "uid", predicate.Int(2)); len(got) != 2 {
		t.Errorf("index lookup = %v", got)
	}
	// ID allocation continues past restored ids.
	d := r.CreateNode(NodeSpec{})
	if d <= c {
		t.Errorf("new id %d not past %d", d, c)
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.NodeCount() != 0 || r.EdgeCount() != 0 {
		t.Error("restored non-empty graph")
	}
}

func TestRestoreGarbage(t *testing.T) {
	if _, err := Restore(strings.NewReader("not a snapshot")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	g := New()
	for i := 0; i < 20; i++ {
		g.CreateNode(NodeSpec{Props: props("i", i)})
	}
	var b1, b2 bytes.Buffer
	if err := g.Snapshot(&b1); err != nil {
		t.Fatal(err)
	}
	if err := g.Snapshot(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("snapshot bytes are not deterministic")
	}
}

func TestSnapshotNullProp(t *testing.T) {
	g := New()
	id := g.CreateNode(NodeSpec{Props: Props{"x": predicate.Null()}})
	var buf bytes.Buffer
	if err := g.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := r.Prop(id, "x"); !ok || !v.IsNull() {
		t.Errorf("null prop = %v %v", v, ok)
	}
}

var updateSnapshot = flag.Bool("update", false, "rewrite testdata/snapshot20.gob from goldenGraph")

// goldenGraph builds a 20-node graph that exercises every stored shape:
// unsorted and repeated labels, a label added after creation, all four
// value kinds, a deleted and an overwritten property, edges with and
// without properties, a relabeled edge, parallel edges and a self-loop,
// and two index definitions.
func goldenGraph() *Graph {
	g := New()
	g.CreateIndex("uidIndex", "uid")
	ids := make([]NodeID, 20)
	for i := range ids {
		spec := NodeSpec{Props: props("uid", i%4, "predicate", fmt.Sprintf("dblp.year=%d", 2000+i))}
		switch i % 3 {
		case 0:
			spec.Labels = []string{"uidIndex"}
		case 1:
			spec.Labels = []string{"z", "uidIndex", "a", "z"}
		}
		if i%5 == 0 {
			spec.Props["intensity"] = predicate.Float(float64(i) / 7)
			spec.Props["note"] = predicate.Null()
		}
		ids[i] = g.CreateNode(spec)
	}
	g.AddLabel(ids[2], "uidIndex")
	g.AddLabel(ids[3], "late")
	g.SetProp(ids[4], "uid", predicate.Int(-9))
	g.SetProp(ids[6], "source", predicate.String("computed"))
	g.DeleteProp(ids[10], "note")
	g.CreateIndex("late", "uid")
	for i := 0; i+1 < len(ids); i++ {
		var p Props
		if i%2 == 0 {
			p = props("intensity", 0.25*float64(i%4), "rank", i)
		}
		g.CreateEdge(ids[i], ids[i+1], "PREFERS", p)
	}
	g.CreateEdge(ids[0], ids[1], "CYCLE", nil)
	g.CreateEdge(ids[7], ids[7], "DISCARD", props("intensity", 0.5))
	eid, _ := g.CreateEdge(ids[19], ids[0], "DISCARD", nil)
	g.SetEdgeLabel(eid, "PREFERS")
	return g
}

// TestSnapshotGolden: the snapshot of goldenGraph, written when the store
// still kept a heap record per node, must be what goldenGraph snapshots to
// today, and Restore then Snapshot must give it back byte for byte. Run
// with -update to rewrite the file.
func TestSnapshotGolden(t *testing.T) {
	path := filepath.Join("testdata", "snapshot20.gob")
	var built bytes.Buffer
	if err := goldenGraph().Snapshot(&built); err != nil {
		t.Fatal(err)
	}
	if *updateSnapshot {
		if err := os.WriteFile(path, built.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built.Bytes(), golden) {
		t.Errorf("goldenGraph snapshots to %d bytes that differ from %s (%d bytes)", built.Len(), path, len(golden))
	}
	r, err := Restore(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := r.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Errorf("Restore+Snapshot of %s gives %d bytes that differ from its %d", path, again.Len(), len(golden))
	}
	if r.NodeCount() != 20 || r.EdgeCount() != 22 {
		t.Errorf("restored %d nodes, %d edges; want 20, 22", r.NodeCount(), r.EdgeCount())
	}
}

// TestRestoreRejectsInconsistentSnapshots: ids are slab positions, so a
// snapshot whose ids, counters or edge endpoints disagree with its lists
// must not restore. Before this check, NextNode 0 restored silently and the
// next CreateNode handed out id 0 again, overwriting node 0's properties
// while node 0's edge still pointed at its old neighbour.
func TestRestoreRejectsInconsistentSnapshots(t *testing.T) {
	valid := func() snapshotFile {
		return snapshotFile{
			Version:  snapshotVersion,
			NextNode: 3,
			NextEdge: 2,
			Nodes: []snapshotNode{
				{ID: 0, Labels: []string{"uidIndex"}, Keys: []string{"uid"}, Vals: []snapshotValue{{Kind: 1, I: 2}}},
				{ID: 1, Labels: []string{"uidIndex"}, Keys: []string{"uid"}, Vals: []snapshotValue{{Kind: 1, I: 2}}},
				{ID: 2},
			},
			Edges: []snapshotEdge{
				{ID: 0, From: 0, To: 1, Label: "PREFERS"},
				{ID: 1, From: 1, To: 2, Label: "PREFERS"},
			},
			Indexes: []snapshotIndex{{Label: "uidIndex", Prop: "uid"}},
		}
	}
	cases := []struct {
		name string
		edit func(f *snapshotFile)
	}{
		{"next node zero", func(f *snapshotFile) { f.NextNode = 0 }},
		{"next node past count", func(f *snapshotFile) { f.NextNode = 7 }},
		{"next edge below count", func(f *snapshotFile) { f.NextEdge = 1 }},
		{"next edge past count", func(f *snapshotFile) { f.NextEdge = 3 }},
		{"duplicate node id", func(f *snapshotFile) { f.Nodes[2].ID = 1 }},
		{"node ids out of order", func(f *snapshotFile) { f.Nodes[0].ID, f.Nodes[1].ID = 1, 0 }},
		{"node id gap", func(f *snapshotFile) { f.Nodes[2].ID = 5 }},
		{"negative node id", func(f *snapshotFile) { f.Nodes[0].ID = -1 }},
		{"duplicate edge id", func(f *snapshotFile) { f.Edges[1].ID = 0 }},
		{"edge id gap", func(f *snapshotFile) { f.Edges[1].ID = 4 }},
		{"edge from out of range", func(f *snapshotFile) { f.Edges[0].From = 3 }},
		{"edge to out of range", func(f *snapshotFile) { f.Edges[1].To = 9 }},
		{"negative edge endpoint", func(f *snapshotFile) { f.Edges[0].From = -1 }},
		{"node keys without values", func(f *snapshotFile) { f.Nodes[2].Keys = []string{"x"} }},
		{"edge values without keys", func(f *snapshotFile) { f.Edges[0].Vals = []snapshotValue{{Kind: 1}} }},
	}
	encode := func(f snapshotFile) *bytes.Buffer {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(f); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	g, err := Restore(encode(valid()))
	if err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	if g.NodeCount() != 3 || g.EdgeCount() != 2 || len(g.FindNodes("uidIndex", "uid", predicate.Int(2))) != 2 {
		t.Fatalf("valid snapshot restored %d nodes, %d edges", g.NodeCount(), g.EdgeCount())
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := valid()
			c.edit(&f)
			if g, err := Restore(encode(f)); err == nil {
				t.Fatalf("restored %d nodes and %d edges, want an error", g.NodeCount(), g.EdgeCount())
			}
		})
	}
}
