package predicate

import "testing"

// FuzzNormalize: for any text Parse accepts, Normalize returns text that
// Parse accepts too, and normalizing that again changes nothing. The HYPRE
// graph relies on both when it keys nodes by normalized predicate and
// memoizes the normalization of each raw string.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{
		// The shapes the preference extractor writes.
		`dblp.venue="VLDB"`, `dblp.venue="Proc. \"X\" & Y"`, `dblp_author.aid=123`, `dblp_author.aid=0`,
		// Syntactic variants that must collapse to one node key.
		`dblp.venue = 'VLDB'`, ` dblp.venue="VLDB" `, `DBLP.VENUE="VLDB"`,
		`dblp.year BETWEEN 2000 AND 2010`, `dblp.venue IN ("A", 'B', "C")`,
		`NOT (x=1 OR y<2) AND z>=3.5`, `x<>1 AND x!=2`, `true`, `TRUE AND TRUE`,
		`x=-3`, `x=2.5`, `x=1e308`, `x=-0.0`, `x=1.0`, `x=.5`, `x="a\\b"`, `x='it''s'`,
		// Junk of the kind malformed requests carry.
		`dblp.venue ~~ x`, ``, `(((`, `x = "unterminated`, `x IN ()`, `x BETWEEN 1`,
		`AND`, `x=1 OR`, `"x"=1`, `x=1)`, "x=\x00", `x==1`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if _, err := Parse(s); err != nil {
			return
		}
		n := Normalize(s)
		if _, err := Parse(n); err != nil {
			t.Fatalf("Normalize(%q) = %q, which does not parse: %v", s, n, err)
		}
		if again := Normalize(n); again != n {
			t.Fatalf("Normalize is not idempotent on %q: %q, then %q", s, n, again)
		}
	})
}
