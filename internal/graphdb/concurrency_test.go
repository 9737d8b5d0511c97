package graphdb

import (
	"sync"
	"testing"

	"hypre/internal/predicate"
)

// TestConcurrentReadersAndWriters hammers the store from parallel
// goroutines, readers reaching the newest records while writers append to
// the slabs: the public API must be race-free (run with -race) and the
// final state must account for every write.
func TestConcurrentReadersAndWriters(t *testing.T) {
	g := New()
	g.CreateIndex("uidIndex", "uid")
	seed := make([]NodeID, 50)
	for i := range seed {
		seed[i] = g.CreateNode(NodeSpec{Labels: []string{"uidIndex"}, Props: props("uid", i%5)})
	}

	const writers = 4
	const perWriter = 100
	var wg sync.WaitGroup

	// Writers create nodes and edges.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := g.CreateNode(NodeSpec{Labels: []string{"uidIndex"}, Props: props("uid", w)})
				if _, err := g.CreateEdge(seed[(w*perWriter+i)%len(seed)], id, "PREFERS", nil); err != nil {
					t.Errorf("edge: %v", err)
					return
				}
				if err := g.SetProp(id, "intensity", predicate.Float(float64(i)/perWriter)); err != nil {
					t.Errorf("set prop: %v", err)
					return
				}
			}
		}(w)
	}
	// Readers traverse, look up and query concurrently.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.FindNodes("uidIndex", "uid", predicate.Int(int64(i%5)))
				g.PathExists(seed[0], seed[len(seed)-1], "PREFERS")
				g.NodeCount()
				g.OutEdges(seed[i%len(seed)], "PREFERS")
				g.InDegree(NodeID(g.NodeCount()-1), "PREFERS")
				g.Prop(NodeID(g.NodeCount()-1), "intensity")
				if i%50 == 0 {
					g.ForEachNode(func(NodeID, []string, Props) bool { return true })
				}
			}
		}()
	}
	wg.Wait()

	wantNodes := len(seed) + writers*perWriter
	if g.NodeCount() != wantNodes {
		t.Errorf("nodes = %d, want %d", g.NodeCount(), wantNodes)
	}
	if g.EdgeCount() != writers*perWriter {
		t.Errorf("edges = %d, want %d", g.EdgeCount(), writers*perWriter)
	}
	// Index consistency after the storm: per-writer uid counts.
	for w := 0; w < writers; w++ {
		got := len(g.FindNodes("uidIndex", "uid", predicate.Int(int64(w))))
		want := perWriter + 10 // 10 seed nodes per uid residue class (50/5)
		if got != want {
			t.Errorf("uid %d indexed %d nodes, want %d", w, got, want)
		}
	}
}
