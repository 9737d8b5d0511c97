package combine

import (
	"math/rand"
	"testing"

	"hypre/internal/hypre"
)

// TestRandomComboSetEqualsSQL fuzzes the set-algebra evaluator against the
// per-group SQL path on randomly built combinations over the Table 6
// fixture — the load-bearing equivalence behind the pre-computed pair table.
func TestRandomComboSetEqualsSQL(t *testing.T) {
	ev := testEvaluator(t)
	pool := []hypre.ScoredPred{
		mustSP(t, `dblp.venue="VLDB"`, 0.50),
		mustSP(t, `dblp.venue="PVLDB"`, 0.45),
		mustSP(t, `dblp.venue="SIGMOD"`, 0.40),
		mustSP(t, `dblp.venue="INFOCOM"`, 0.35),
		mustSP(t, `dblp_author.aid=1`, 0.30),
		mustSP(t, `dblp_author.aid=2`, 0.25),
		mustSP(t, `dblp_author.aid=3`, 0.20),
		mustSP(t, `dblp_author.aid=6`, 0.15),
		mustSP(t, `dblp.year>=2009`, 0.10),
		mustSP(t, `dblp.year<2008`, 0.05),
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		// Random combo: 1-5 preferences, randomly And-ed or Or-ed in.
		first := pool[rng.Intn(len(pool))]
		c := NewCombo(first)
		in := map[string]bool{first.Pred: true}
		n := 1 + rng.Intn(4)
		for i := 0; i < n; i++ {
			p := pool[rng.Intn(len(pool))]
			if in[p.Pred] {
				continue
			}
			in[p.Pred] = true
			if rng.Intn(2) == 0 {
				c = c.And(p)
			} else {
				c = c.Or(p)
			}
		}
		setN, err := ev.count(c)
		if err != nil {
			t.Fatal(err)
		}
		sqlN, err := ev.CountSQL(c)
		if err != nil {
			t.Fatal(err)
		}
		if setN != sqlN {
			t.Fatalf("trial %d: set=%d sql=%d for %s", trial, setN, sqlN, c)
		}
	}
}

// TestComboIntensityInvariants fuzzes structural invariants of the
// combination algebra: adding an AND group never lowers the combined
// intensity (inflationary), OR-ing into a group never raises it above the
// group's previous fold (reserved).
func TestComboIntensityInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(attr string, id int, in float64) hypre.ScoredPred {
		return mustSP(t, attr+"="+itoa(id), in)
	}
	for trial := 0; trial < 200; trial++ {
		c := NewCombo(mk("dblp_author.aid", rng.Intn(100), rng.Float64()))
		for i := 0; i < 4; i++ {
			before := c.Intensity()
			p := mk("dblp_author.aid", 100+trial*10+i, rng.Float64())
			and := c.And(p)
			if and.Intensity() < before-1e-12 {
				t.Fatalf("AND deflated: %v -> %v", before, and.Intensity())
			}
			// OR folds p into the first group carrying its attribute: the
			// combined intensity moves toward p relative to that group's
			// previous f∨ fold (reserved behaviour), monotonically through
			// f∧. Compare against the receiving group's fold, not the
			// overall value.
			groupFold := receivingGroupFold(c, p)
			or := c.Or(p)
			switch {
			case p.Intensity <= groupFold && or.Intensity() > before+1e-12:
				t.Fatalf("OR below group fold inflated: %v -> %v (fold %v)",
					before, or.Intensity(), groupFold)
			case p.Intensity >= groupFold && or.Intensity() < before-1e-12:
				t.Fatalf("OR above group fold deflated: %v -> %v (fold %v)",
					before, or.Intensity(), groupFold)
			}
			if rng.Intn(2) == 0 {
				c = and
			} else {
				c = or
			}
		}
	}
}

// receivingGroupFold returns the f∨ fold of the group Or(p) would extend
// (the first group sharing p's attribute), or p's own intensity when no
// group matches (Or degenerates to And with a singleton group).
func receivingGroupFold(c Combo, p hypre.ScoredPred) float64 {
	for _, g := range c.Groups {
		if len(g) > 0 && g[0].Attr != "" && g[0].Attr == p.Attr {
			vals := make([]float64, len(g))
			for i, m := range g {
				vals[i] = m.Intensity
			}
			return hypre.FOrSeq(vals...)
		}
	}
	return p.Intensity
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
