package graphdb

import (
	"testing"

	"hypre/internal/predicate"
)

func benchGraph(n int) (*Graph, []NodeID) {
	g := New()
	g.CreateIndex("uidIndex", "uid")
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{
			Labels: []string{"uidIndex"},
			Props:  props("uid", i%100, "intensity", 0.5),
		}
	}
	ids := g.CreateNodes(specs)
	for i := 0; i+1 < len(ids); i += 2 {
		g.CreateEdge(ids[i], ids[i+1], "PREFERS", nil)
	}
	return g, ids
}

func BenchmarkCreateNodeSingle(b *testing.B) {
	g := New()
	g.CreateIndex("uidIndex", "uid")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CreateNode(NodeSpec{Labels: []string{"uidIndex"}, Props: props("uid", i%100)})
	}
}

func BenchmarkCreateNodesBatch1k(b *testing.B) {
	specs := make([]NodeSpec, 1000)
	for i := range specs {
		specs[i] = NodeSpec{Labels: []string{"uidIndex"}, Props: props("uid", i%100)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New()
		g.CreateIndex("uidIndex", "uid")
		g.CreateNodes(specs)
	}
}

func BenchmarkFindNodesIndexed(b *testing.B) {
	g, _ := benchGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := g.FindNodes("uidIndex", "uid", predicate.Int(int64(i%100))); len(got) == 0 {
			b.Fatal("no nodes")
		}
	}
}

func BenchmarkPathExistsChain(b *testing.B) {
	g := New()
	const n = 1000
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.CreateNode(NodeSpec{})
	}
	for i := 0; i+1 < n; i++ {
		g.CreateEdge(ids[i], ids[i+1], "PREFERS", nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.PathExists(ids[0], ids[n-1], "PREFERS") {
			b.Fatal("path lost")
		}
	}
}

func BenchmarkCypherIndexedQuery(b *testing.B) {
	g, _ := benchGraph(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := g.Query(`START n=nodes:uidIndex(uid=7) RETURN n.intensity ORDER BY n.intensity DESC LIMIT 10`)
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("rows=%v err=%v", len(res.Rows), err)
		}
	}
}
