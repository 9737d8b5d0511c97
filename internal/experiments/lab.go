// Package experiments contains one runner per table and figure of the
// dissertation's evaluation (Chapters 6–7), plus the ablation studies
// DESIGN.md calls out. Each runner returns a structured result with a
// Render method that prints the same rows/series the paper reports; the
// cmd/benchrunner binary and the root bench_test.go drive them.
package experiments

import (
	"fmt"
	"io"

	"hypre/internal/combine"
	"hypre/internal/hypre"
	"hypre/internal/workload"
)

// Lab is the shared experimental setup: the synthetic citation network, the
// extracted preference workload, the HYPRE graph built from it, and the two
// exemplar users (the paper's uid=2 and uid=38437 stand-ins).
type Lab struct {
	Cfg    workload.Config
	Net    *workload.Network
	Prefs  *workload.Prefs
	Graph  *hypre.Graph
	Rich   int64 // stands in for uid=2 (~170 preferences)
	Modest int64 // stands in for uid=38437 (~50 preferences)
}

// NewLab generates the workload, extracts preferences, and builds the full
// HYPRE graph (Algorithm 1 over every user).
func NewLab(cfg workload.Config) (*Lab, error) {
	net, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	prefs := workload.Extract(net, workload.DefaultExtractConfig())
	g := hypre.NewGraph(hypre.DefaultAvg)
	if _, err := g.Build(prefs.Quant, prefs.Qual); err != nil {
		return nil, err
	}
	rich, modest := prefs.PickUsers(170, 50)
	return &Lab{Cfg: cfg, Net: net, Prefs: prefs, Graph: g, Rich: rich, Modest: modest}, nil
}

// Evaluator returns a fresh combination evaluator over the lab's store.
func (l *Lab) Evaluator() *combine.Evaluator {
	return combine.NewEvaluator(l.Net.DB, workload.BaseQuery, "dblp.pid")
}

// Users returns the two exemplar user ids in (rich, modest) order.
func (l *Lab) Users() []int64 { return []int64{l.Rich, l.Modest} }

// ProfileFor returns a user's positive preference profile, descending by
// intensity, capped at limit entries (0 = no cap). The Chapter 7
// experiments run on positive profiles.
func (l *Lab) ProfileFor(uid int64, limit int) []hypre.ScoredPred {
	p := l.Graph.PositiveProfile(uid)
	if limit > 0 && len(p) > limit {
		p = p[:limit]
	}
	return p
}

// fprintf swallows the error of fmt.Fprintf for render methods (writers in
// the harness are in-memory buffers or stdout).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}

// scoredFromQuant converts workload quantitative rows into ScoredPreds,
// skipping unparsable entries (there are none in the generated workload;
// the guard keeps the harness total).
func scoredFromQuant(rows []hypre.QuantPref) []hypre.ScoredPred {
	out := make([]hypre.ScoredPred, 0, len(rows))
	for _, r := range rows {
		sp, err := hypre.NewScoredPred(r.Pred, r.Intensity)
		if err != nil {
			continue
		}
		out = append(out, sp)
	}
	return out
}
