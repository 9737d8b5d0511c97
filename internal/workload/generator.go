// Package workload builds the experimental workload of Chapter 6: a
// DBLP-like citation network in the relational store, and user preferences
// extracted from the data itself using the dissertation's five extraction
// rules (§6.2). The real DBLP-Citation-network V4 dump is not available
// offline, so the generator synthesizes a network with the statistical
// features the algorithms are sensitive to — Zipf-like venue popularity,
// long-tailed per-author paper counts and citation counts — which yields
// the long-tailed preference-count distribution of Fig. 17 and the
// starvation/flooding behaviours of §4.6. See DESIGN.md "Substitutions".
package workload

import (
	"fmt"
	"math/rand"

	"hypre/internal/predicate"
	"hypre/internal/relstore"
)

// Config controls the size and shape of the synthetic citation network.
type Config struct {
	Seed       int64
	NumPapers  int
	NumAuthors int
	NumVenues  int
	MinYear    int
	MaxYear    int
	// MaxAuthorsPerPaper bounds the author list length (>= 1).
	MaxAuthorsPerPaper int
	// MeanCitations is the mean of the per-paper citation count
	// distribution (geometric).
	MeanCitations float64
	// ZipfS is the skew of the venue/author popularity distributions
	// (> 1; higher = more skew).
	ZipfS float64
}

// DefaultConfig is the laptop-scale default used by tests and examples:
// large enough to exhibit the paper's long-tail shapes, small enough to run
// in milliseconds.
func DefaultConfig() Config {
	return Config{
		Seed:               42,
		NumPapers:          4000,
		NumAuthors:         1200,
		NumVenues:          40,
		MinYear:            1990,
		MaxYear:            2013,
		MaxAuthorsPerPaper: 4,
		MeanCitations:      3,
		ZipfS:              1.3,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumPapers <= 0:
		return fmt.Errorf("workload: NumPapers must be positive")
	case c.NumAuthors <= 0:
		return fmt.Errorf("workload: NumAuthors must be positive")
	case c.NumVenues <= 0:
		return fmt.Errorf("workload: NumVenues must be positive")
	case c.MinYear > c.MaxYear:
		return fmt.Errorf("workload: MinYear > MaxYear")
	case c.MaxAuthorsPerPaper < 1:
		return fmt.Errorf("workload: MaxAuthorsPerPaper must be >= 1")
	case c.MeanCitations < 0:
		return fmt.Errorf("workload: MeanCitations must be >= 0")
	case c.ZipfS <= 1:
		return fmt.Errorf("workload: ZipfS must be > 1")
	}
	return nil
}

// Paper is the in-memory form of one dblp row plus its links.
type Paper struct {
	PID     int64
	Year    int
	Venue   int   // venue index
	Authors []int // author ids
	Cites   []int64
}

// Network is the generated citation network: both the relational tables and
// the in-memory adjacency used by preference extraction.
type Network struct {
	Cfg     Config
	DB      *relstore.DB
	Papers  []Paper
	Venues  []string
	Authors []string
	// PapersByAuthor maps author id -> indexes into Papers.
	PapersByAuthor map[int][]int
	// PaperByPID maps pid -> index into Papers.
	PaperByPID map[int64]int
}

var venueSeeds = []string{
	"VLDB", "SIGMOD", "PODS", "ICDE", "EDBT", "CIKM", "KDD", "WWW",
	"INFOCOM", "SIGIR", "ICDT", "SOCC", "MDM", "DASFAA", "SSDBM",
}

// Generate builds the network and loads it into a fresh relational store
// with the four Chapter 6 tables (dblp, author, citation, dblp_author) and
// indexes on the columns the preference predicates touch.
func Generate(cfg Config) (*Network, error) {
	return GenerateWith(cfg)
}

// GenerateWith is Generate over a store built with the given options:
// bench/ attaches store counters through it, and the write-path suites
// build stores with compaction or a small change log.
func GenerateWith(cfg Config, opts ...relstore.DBOption) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	net := &Network{
		Cfg:            cfg,
		DB:             relstore.NewDB(opts...),
		Venues:         make([]string, cfg.NumVenues),
		Authors:        make([]string, cfg.NumAuthors),
		PapersByAuthor: make(map[int][]int),
		PaperByPID:     make(map[int64]int),
	}
	for i := range net.Venues {
		if i < len(venueSeeds) {
			net.Venues[i] = venueSeeds[i]
		} else {
			net.Venues[i] = fmt.Sprintf("CONF-%d", i)
		}
	}
	for i := range net.Authors {
		net.Authors[i] = fmt.Sprintf("Author %d", i)
	}

	// Skewed samplers: venue popularity and author productivity follow a
	// Zipf law, the citation target distribution prefers earlier (already
	// popular) papers.
	venueZipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.NumVenues-1))
	authorZipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.NumAuthors-1))

	net.Papers = make([]Paper, cfg.NumPapers)
	for i := range net.Papers {
		p := &net.Papers[i]
		p.PID = int64(i + 1)
		p.Year = cfg.MinYear + rng.Intn(cfg.MaxYear-cfg.MinYear+1)
		p.Venue = int(venueZipf.Uint64())
		nAuth := 1 + rng.Intn(cfg.MaxAuthorsPerPaper)
		seen := map[int]bool{}
		for len(p.Authors) < nAuth {
			a := int(authorZipf.Uint64())
			if !seen[a] {
				seen[a] = true
				p.Authors = append(p.Authors, a)
				net.PapersByAuthor[a] = append(net.PapersByAuthor[a], i)
			}
		}
		// Citations point at earlier papers with preferential attachment:
		// papers with low index (generated earlier) are cited more.
		if i > 0 {
			nCites := geometric(rng, cfg.MeanCitations)
			cited := map[int]bool{}
			for c := 0; c < nCites; c++ {
				// Squaring the uniform biases toward index 0: a crude but
				// effective rich-get-richer rule.
				u := rng.Float64()
				target := int(u * u * float64(i))
				if target >= i {
					target = i - 1
				}
				if !cited[target] {
					cited[target] = true
					p.Cites = append(p.Cites, net.Papers[target].PID)
				}
			}
		}
		net.PaperByPID[p.PID] = i
	}

	if err := loadTables(net); err != nil {
		return nil, err
	}
	return net, nil
}

// geometric samples a geometric-ish count with the given mean.
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (1 + mean)
	n := 0
	for rng.Float64() > p && n < 64 {
		n++
	}
	return n
}

func loadTables(net *Network) error {
	db := net.DB
	dblp, err := db.CreateTable("dblp",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "title", Kind: predicate.KindString},
		relstore.Column{Name: "venue", Kind: predicate.KindString},
		relstore.Column{Name: "year", Kind: predicate.KindInt},
		relstore.Column{Name: "abstract", Kind: predicate.KindString},
	)
	if err != nil {
		return err
	}
	author, err := db.CreateTable("author",
		relstore.Column{Name: "aid", Kind: predicate.KindInt},
		relstore.Column{Name: "full_name", Kind: predicate.KindString},
	)
	if err != nil {
		return err
	}
	citation, err := db.CreateTable("citation",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "cid", Kind: predicate.KindInt},
	)
	if err != nil {
		return err
	}
	dblpAuthor, err := db.CreateTable("dblp_author",
		relstore.Column{Name: "pid", Kind: predicate.KindInt},
		relstore.Column{Name: "aid", Kind: predicate.KindInt},
	)
	if err != nil {
		return err
	}

	for i := range net.Papers {
		p := &net.Papers[i]
		title := fmt.Sprintf("Paper %d on %s topics", p.PID, net.Venues[p.Venue])
		abstract := fmt.Sprintf("Abstract of paper %d.", p.PID)
		if _, err := dblp.Insert(
			predicate.Int(p.PID), predicate.String(title),
			predicate.String(net.Venues[p.Venue]), predicate.Int(int64(p.Year)),
			predicate.String(abstract)); err != nil {
			return err
		}
		for _, a := range p.Authors {
			if _, err := dblpAuthor.Insert(predicate.Int(p.PID), predicate.Int(int64(a))); err != nil {
				return err
			}
		}
		for _, c := range p.Cites {
			if _, err := citation.Insert(predicate.Int(p.PID), predicate.Int(c)); err != nil {
				return err
			}
		}
	}
	for a, name := range net.Authors {
		if _, err := author.Insert(predicate.Int(int64(a)), predicate.String(name)); err != nil {
			return err
		}
	}

	// Indexes on the join and key columns, and on the one filter column
	// a scan reads through an index: a right-side equality (dblp_author.aid)
	// is answered by index candidates, while a base-table filter (venue,
	// year) always runs the block scan, so an index there would only be
	// kept up to date.
	for _, ix := range []struct{ table, col string }{
		{"dblp", "pid"},
		{"dblp_author", "pid"}, {"dblp_author", "aid"},
		{"citation", "pid"}, {"author", "aid"},
	} {
		if err := db.Table(ix.table).BuildIndex(ix.col); err != nil {
			return err
		}
	}
	return nil
}

// BaseQuery is the canonical evaluation query of Chapter 5:
// SELECT ... FROM dblp JOIN dblp_author ON dblp.pid = dblp_author.pid.
func BaseQuery(where predicate.Predicate) relstore.Query {
	return relstore.Query{
		From:  "dblp",
		Join:  &relstore.JoinSpec{Table: "dblp_author", LeftCol: "pid", RightCol: "pid"},
		Where: where,
	}
}
