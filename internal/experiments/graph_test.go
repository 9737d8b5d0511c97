package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"testing"

	"hypre/internal/graphdb"
	"hypre/internal/hypre"
	"hypre/internal/workload"
)

// goldenLabConfig is TestFiguresGolden's workload: 800 papers, 300
// authors, 15 venues at the default seed.
func goldenLabConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.NumPapers, cfg.NumAuthors, cfg.NumVenues = 800, 300, 15
	return cfg
}

// dumpGraph writes a canonical text form of the store: every node in id
// order with its sorted labels and sorted properties, then every edge in id
// order with its label, endpoints and sorted properties. Values carry their
// kind, so Int(1) and Float(1) dump differently.
func dumpGraph(w io.Writer, g *graphdb.Graph) {
	writeProps := func(p graphdb.Props) {
		keys := make([]string, 0, len(p))
		for k := range p {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, " %s=%s:%s", k, p[k].Kind(), p[k])
		}
	}
	edges := map[graphdb.EdgeID]graphdb.Edge{}
	g.ForEachNode(func(id graphdb.NodeID, labels []string, props graphdb.Props) bool {
		fmt.Fprintf(w, "n%d %v", id, labels)
		writeProps(props)
		fmt.Fprintln(w)
		for _, e := range g.OutEdges(id, "") {
			edges[e.ID] = e
		}
		return true
	})
	for i := 0; i < g.EdgeCount(); i++ {
		e, ok := edges[graphdb.EdgeID(i)]
		if !ok {
			fmt.Fprintf(w, "e%d missing\n", i)
			continue
		}
		fmt.Fprintf(w, "e%d %s n%d->n%d", e.ID, e.Label, e.From, e.To)
		writeProps(e.Props)
		fmt.Fprintln(w)
	}
}

// TestGraphBuildDigest pins the HYPRE graph Algorithm 1 builds over the
// golden lab: its canonical dump's SHA-256 and its Table 11 counts must
// stay what they were before the graph store moved to slabs and the
// builder started memoizing predicate canonicalization.
func TestGraphBuildDigest(t *testing.T) {
	const wantDigest = "98cd3086dcd77a93df7768e8c764cd4fcda956600a7306f286b0f4e8d05b7d97"
	wantStats := hypre.Stats{Nodes: 5031, Edges: 3754, Prefers: 3754}
	net, err := workload.Generate(goldenLabConfig())
	if err != nil {
		t.Fatal(err)
	}
	prefs := workload.Extract(net, workload.DefaultExtractConfig())
	g := hypre.NewGraph(hypre.DefaultAvg)
	if _, err := g.Build(prefs.Quant, prefs.Qual); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	dumpGraph(h, g.Store())
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("graph digest %s, want %s", got, wantDigest)
	}
	if got := g.GraphStats(); got != wantStats {
		t.Errorf("GraphStats %+v, want %+v", got, wantStats)
	}
}

// BenchmarkGraphBuild times Algorithm 1 alone: the lab's workload is
// generated and extracted once, then every iteration builds a fresh graph
// from it.
func BenchmarkGraphBuild(b *testing.B) {
	net, err := workload.Generate(goldenLabConfig())
	if err != nil {
		b.Fatal(err)
	}
	prefs := workload.Extract(net, workload.DefaultExtractConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		g := hypre.NewGraph(hypre.DefaultAvg)
		if _, err := g.Build(prefs.Quant, prefs.Qual); err != nil {
			b.Fatal(err)
		}
	}
}
