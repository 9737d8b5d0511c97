package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"hypre/internal/workload"
)

// IDs are the experiment ids Run accepts, in the order they print.
var IDs = []string{
	"table10", "table11", "table12", "fig13", "fig17", "fig18", "fig26",
	"fig28", "fig29", "fig32", "fig35", "fig37", "fig39", "ablation",
}

// ParseIDs validates a comma-separated experiment list against IDs; "all"
// selects every experiment.
func ParseIDs(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(list, ",") {
		id := strings.TrimSpace(strings.ToLower(e))
		if id != "all" && !slices.Contains(IDs, id) {
			return nil, fmt.Errorf("unknown experiment %q; valid ids: all,%s", id, strings.Join(IDs, ","))
		}
		want[id] = true
	}
	return want, nil
}

// Run builds the lab for cfg and prints the selected experiments to w in
// IDs order, under a header naming the workload: the output of
// cmd/benchrunner. profileCap caps the combination experiments' profiles
// (0 = full profile), k is the Top-K experiments' K, and runs the number of
// seeded Bias-Random runs.
func Run(w io.Writer, cfg workload.Config, want map[string]bool, profileCap, k, runs int) error {
	fprintf(w, "# HYPRE experiment harness: %d papers, %d authors, %d venues (seed %d)\n",
		cfg.NumPapers, cfg.NumAuthors, cfg.NumVenues, cfg.Seed)
	lab, err := NewLab(cfg)
	if err != nil {
		return err
	}
	fprintf(w, "# exemplar users: rich uid=%d (%d prefs), modest uid=%d (%d prefs)\n\n",
		lab.Rich, lab.Prefs.CountByUser()[lab.Rich],
		lab.Modest, lab.Prefs.CountByUser()[lab.Modest])

	run := func(id string) bool { return want["all"] || want[id] }
	if run("table10") {
		RunTable10(lab).Render(w)
		fprintf(w, "\n")
	}
	if run("table11") {
		r, err := RunTable11(lab)
		if err != nil {
			return err
		}
		r.Render(w)
		fprintf(w, "\n")
	}
	if run("table12") {
		r, err := RunTable12(lab, lab.Modest)
		if err != nil {
			return err
		}
		r.Render(w)
		fprintf(w, "\n")
	}
	if run("fig13") {
		RunFig13(7, 50000).Render(w)
		fprintf(w, "\n")
	}
	if run("fig17") {
		RunFig17(lab).Render(w)
		fprintf(w, "\n")
	}
	if run("fig18") {
		for _, uid := range lab.Users() {
			r, err := RunFig18Utility(lab, uid, profileCap)
			if err != nil {
				return err
			}
			r.Render(w)
			r.RenderTuplesIntensity(w)
			fprintf(w, "\n")
		}
	}
	if run("fig26") {
		for _, uid := range lab.Users() {
			RunFig26PrefGrowth(lab, uid).Render(w)
		}
		fprintf(w, "\n")
	}
	if run("fig28") {
		for _, uid := range lab.Users() {
			r, err := RunFig28Coverage(lab, uid)
			if err != nil {
				return err
			}
			r.Render(w)
		}
		fprintf(w, "\n")
	}
	if run("fig29") {
		for _, uid := range lab.Users() {
			r, err := RunFig29CombineTwo(lab, uid, profileCap)
			if err != nil {
				return err
			}
			r.Render(w)
		}
		fprintf(w, "\n")
	}
	if run("fig32") {
		for _, uid := range lab.Users() {
			r, err := RunFig32PartiallyCombineAll(lab, uid, profileCap)
			if err != nil {
				return err
			}
			r.Render(w)
		}
		fprintf(w, "\n")
	}
	if run("fig35") {
		for _, uid := range lab.Users() {
			r, err := RunFig35BiasRandom(lab, uid, profileCap, runs)
			if err != nil {
				return err
			}
			r.Render(w)
		}
		fprintf(w, "\n")
	}
	if run("fig37") {
		for _, uid := range lab.Users() {
			r, err := RunFig37PEPSvsTA(lab, uid, k, profileCap)
			if err != nil {
				return err
			}
			r.Render(w)
		}
		fprintf(w, "\n")
	}
	if run("fig39") {
		ks := []int{10, 100, 200, 300, 400, 500, 600, 700, 800}
		for _, uid := range lab.Users() {
			r, err := RunFig39PEPSTime(lab, uid, ks, 3, profileCap)
			if err != nil {
				return err
			}
			r.Render(w)
		}
		fprintf(w, "\n")
	}
	if run("ablation") {
		RunAblationComposition().Render(w)
		fprintf(w, "\n")
		r2, err := RunAblationPEPS(lab, lab.Modest, k, profileCap)
		if err != nil {
			return err
		}
		r2.Render(w)
		fprintf(w, "\n")
		r3, err := RunAblationPairCache(lab, lab.Modest, min(profileCap, 12))
		if err != nil {
			return err
		}
		r3.Render(w)
		fprintf(w, "\n")
	}
	return nil
}
