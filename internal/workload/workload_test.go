package workload

import (
	"math"
	"testing"

	"hypre/internal/hypre"
	"hypre/internal/predicate"
)

func smallNet(t *testing.T) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumPapers = 600
	cfg.NumAuthors = 200
	cfg.NumVenues = 15
	net, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumPapers = 0 },
		func(c *Config) { c.NumAuthors = 0 },
		func(c *Config) { c.NumVenues = 0 },
		func(c *Config) { c.MinYear = 3000 },
		func(c *Config) { c.MaxAuthorsPerPaper = 0 },
		func(c *Config) { c.MeanCitations = -1 },
		func(c *Config) { c.ZipfS = 1.0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGenerateTables(t *testing.T) {
	net := smallNet(t)
	stats := net.DB.Stats()
	byName := map[string][2]int{}
	for _, s := range stats {
		byName[s.Name] = [2]int{s.Arity, s.Cardinality}
	}
	// Table 10's schema: dblp has arity 5, author 2, citation 2, dblp_author 2.
	if got := byName["dblp"]; got[0] != 5 || got[1] != 600 {
		t.Errorf("dblp = %v", got)
	}
	if got := byName["author"]; got[0] != 2 || got[1] != 200 {
		t.Errorf("author = %v", got)
	}
	if got := byName["citation"]; got[0] != 2 {
		t.Errorf("citation = %v", got)
	}
	if got := byName["dblp_author"]; got[0] != 2 || got[1] < 600 {
		t.Errorf("dblp_author = %v (must have >= one row per paper)", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPapers = 300
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Papers) != len(b.Papers) {
		t.Fatal("different sizes")
	}
	for i := range a.Papers {
		if a.Papers[i].Venue != b.Papers[i].Venue || a.Papers[i].Year != b.Papers[i].Year ||
			len(a.Papers[i].Cites) != len(b.Papers[i].Cites) {
			t.Fatalf("paper %d differs", i)
		}
	}
}

func TestGenerateCitationsPointBackward(t *testing.T) {
	net := smallNet(t)
	for i := range net.Papers {
		for _, c := range net.Papers[i].Cites {
			j, ok := net.PaperByPID[c]
			if !ok {
				t.Fatalf("citation to unknown pid %d", c)
			}
			if j >= i {
				t.Fatalf("paper %d cites non-earlier paper %d", i, j)
			}
		}
	}
}

func TestGenerateSkewedDistributions(t *testing.T) {
	net := smallNet(t)
	// Venue distribution must be clearly skewed (Zipf), not uniform: the
	// Gini coefficient of the venues' paper counts.
	counts := make([]float64, len(net.Venues))
	for _, p := range net.Papers {
		counts[p.Venue]++
	}
	var sum, absDiff float64
	for _, a := range counts {
		sum += a
		for _, b := range counts {
			absDiff += math.Abs(a - b)
		}
	}
	if g := absDiff / (2 * float64(len(counts)) * sum); g < 0.4 {
		t.Errorf("venue Gini = %v, want skew >= 0.4", g)
	}
	links := 0
	for _, ps := range net.PapersByAuthor {
		links += len(ps)
	}
	if m := float64(links) / float64(len(net.PapersByAuthor)); m <= 1 {
		t.Errorf("mean papers/author = %v", m)
	}
}

func TestExtractRules(t *testing.T) {
	net := smallNet(t)
	prefs := Extract(net, DefaultExtractConfig())
	if len(prefs.Quant) == 0 || len(prefs.Qual) == 0 || len(prefs.Users) == 0 {
		t.Fatalf("empty extraction: %d quant, %d qual, %d users",
			len(prefs.Quant), len(prefs.Qual), len(prefs.Users))
	}
	// All predicates must parse and all intensities be legal.
	for _, q := range prefs.Quant {
		if _, err := predicate.Parse(q.Pred); err != nil {
			t.Fatalf("bad quant predicate %q: %v", q.Pred, err)
		}
		if !hypre.ValidQuantIntensity(q.Intensity) {
			t.Fatalf("bad quant intensity %v", q.Intensity)
		}
	}
	for _, q := range prefs.Qual {
		if _, err := predicate.Parse(q.Left); err != nil {
			t.Fatalf("bad qual left %q: %v", q.Left, err)
		}
		if _, err := predicate.Parse(q.Right); err != nil {
			t.Fatalf("bad qual right %q: %v", q.Right, err)
		}
		// Qualitative strengths from consecutive sorted pairs are >= 0.
		if q.Intensity < 0 || q.Intensity > 1 {
			t.Fatalf("bad qual intensity %v", q.Intensity)
		}
	}
}

func TestExtractTopVenuesCap(t *testing.T) {
	net := smallNet(t)
	prefs := Extract(net, ExtractConfig{TopVenues: 2, MinAuthorIntensity: 0.1, NegativeTopAuthors: 0})
	// No user may have more than 2 positive venue preferences.
	posVenues := map[int64]int{}
	for _, q := range prefs.Quant {
		if q.Intensity > 0 && q.Pred[:10] == "dblp.venue" {
			posVenues[q.UID]++
		}
	}
	for uid, n := range posVenues {
		if n > 2 {
			t.Fatalf("user %d has %d venue prefs, cap 2", uid, n)
		}
	}
}

func TestExtractAuthorIntensityFilter(t *testing.T) {
	net := smallNet(t)
	prefs := Extract(net, DefaultExtractConfig())
	for _, q := range prefs.Quant {
		if len(q.Pred) > 15 && q.Pred[:15] == "dblp_author.aid" && q.Intensity < 0.1 {
			t.Fatalf("author pref below threshold survived: %+v", q)
		}
	}
}

func TestExtractNegativePrefsExist(t *testing.T) {
	net := smallNet(t)
	prefs := Extract(net, DefaultExtractConfig())
	neg := 0
	for _, q := range prefs.Quant {
		if q.Intensity < 0 {
			neg++
			// Rule 5 only emits venue predicates.
			if q.Pred[:10] != "dblp.venue" {
				t.Fatalf("negative non-venue pref: %+v", q)
			}
		}
	}
	if neg == 0 {
		t.Error("no negative preferences extracted")
	}
}

func TestExtractQualitativeOrdering(t *testing.T) {
	// Consecutive-pair extraction means left intensity >= right intensity,
	// so strengths are non-negative differences; spot-check monotonicity by
	// rebuilding one user's author list.
	net := smallNet(t)
	prefs := Extract(net, DefaultExtractConfig())
	for _, q := range prefs.Qual[:min(50, len(prefs.Qual))] {
		if q.Intensity < 0 {
			t.Fatalf("negative qualitative strength %v", q.Intensity)
		}
	}
}

func TestPrefDistributionLongTail(t *testing.T) {
	net := smallNet(t)
	prefs := Extract(net, DefaultExtractConfig())
	bins := prefs.PrefDistribution()
	if len(bins) < 3 {
		t.Fatalf("degenerate distribution: %v", bins)
	}
	total := 0
	for _, b := range bins {
		total += b.Users
	}
	if total != len(prefs.Users) {
		t.Errorf("histogram covers %d users, want %d", total, len(prefs.Users))
	}
	// Fig. 17's shape: most users sit below the mean (long tail).
	if r := prefs.TailRatio(); r < 0.5 {
		t.Errorf("tail ratio = %v, want >= 0.5", r)
	}
	if prefs.MaxPrefCount() <= 0 {
		t.Error("max pref count should be positive")
	}
}

func TestPickUsers(t *testing.T) {
	net := smallNet(t)
	prefs := Extract(net, DefaultExtractConfig())
	rich, modest := prefs.PickUsers(170, 50)
	if rich < 0 || modest < 0 {
		t.Fatalf("PickUsers failed: %d %d", rich, modest)
	}
	counts := prefs.CountByUser()
	if counts[rich] < counts[modest] {
		t.Errorf("rich user (%d prefs) has fewer than modest (%d)", counts[rich], counts[modest])
	}
}

func TestUserPrefsSubset(t *testing.T) {
	net := smallNet(t)
	prefs := Extract(net, DefaultExtractConfig())
	uid := prefs.Users[0]
	qt, ql := prefs.UserPrefs(uid)
	for _, q := range qt {
		if q.UID != uid {
			t.Fatal("foreign quant pref")
		}
	}
	for _, q := range ql {
		if q.UID != uid {
			t.Fatal("foreign qual pref")
		}
	}
	if len(qt)+len(ql) != prefs.CountByUser()[uid] {
		t.Errorf("subset size mismatch")
	}
}

func TestBaseQueryShape(t *testing.T) {
	net := smallNet(t)
	q := BaseQuery(predicate.MustParse(`dblp.venue="VLDB"`))
	n, err := net.DB.CountDistinct(q, "dblp.pid")
	if err != nil {
		t.Fatal(err)
	}
	// VLDB is the most popular seed venue under Zipf; it must have papers.
	if n == 0 {
		t.Error("no VLDB papers")
	}
}

func TestExtractedPrefsBuildGraph(t *testing.T) {
	// End-to-end: the extracted workload must insert cleanly into HYPRE.
	net := smallNet(t)
	prefs := Extract(net, DefaultExtractConfig())
	uid := prefs.Users[0]
	qt, ql := prefs.UserPrefs(uid)
	h := hypre.NewGraph(hypre.DefaultFixed)
	res, err := h.Build(qt, ql)
	if err != nil {
		t.Fatal(err)
	}
	if res.QuantInserted != len(qt) || res.QualInserted != len(ql) {
		t.Errorf("build = %+v, want %d quant %d qual", res, len(qt), len(ql))
	}
	if len(h.Profile(uid)) == 0 {
		t.Error("empty profile after build")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
