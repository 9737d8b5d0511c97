package combine

import (
	"fmt"
	"math/rand"
	"testing"

	"hypre/internal/hypre"
)

// fpPool is a pool of distinct parsed predicates for randomized draws.
func fpPool(t *testing.T) []hypre.ScoredPred {
	t.Helper()
	specs := []struct {
		pred string
		in   float64
	}{
		{`dblp.venue="INFOCOM"`, 0.23},
		{`dblp.venue="PVLDB"`, 0.14},
		{`dblp.venue="SIGMOD"`, 0.61},
		{`dblp.year=2014`, 0.40},
		{`dblp.year=2015`, 0.05},
		{`dblp_author.aid=2`, 0.19},
		{`dblp_author.aid=6`, 0.12},
		{`dblp_author.aid=9`, 0.88},
	}
	out := make([]hypre.ScoredPred, len(specs))
	for i, s := range specs {
		out[i] = mustSP(t, s.pred, s.in)
	}
	return out
}

// TestFingerprintPermutationInvariant: every permutation of a profile hashes
// identically, and the canonical slice the permutations produce is the same.
func TestFingerprintPermutationInvariant(t *testing.T) {
	pool := fpPool(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(len(pool))
		base := make([]hypre.ScoredPred, n)
		copy(base, pool[:n])
		canonWant, fpWant := CanonicalProfile(base)
		perm := make([]hypre.ScoredPred, n)
		copy(perm, base)
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		canonGot, fpGot := CanonicalProfile(perm)
		if fpGot != fpWant {
			t.Fatalf("trial %d: permutation changed fingerprint: %s vs %s", trial, fpGot, fpWant)
		}
		if len(canonGot) != len(canonWant) {
			t.Fatalf("trial %d: canonical length diverged", trial)
		}
		for i := range canonGot {
			if canonGot[i].Pred != canonWant[i].Pred || canonGot[i].Intensity != canonWant[i].Intensity {
				t.Fatalf("trial %d: canonical entry %d diverged", trial, i)
			}
		}
	}
}

// TestFingerprintWeightMerge: a duplicated predicate folds its intensities
// with f∧ regardless of where the duplicates sit, so equivalent weightings
// of the same profile collide on purpose.
func TestFingerprintWeightMerge(t *testing.T) {
	pool := fpPool(t)
	a, b := pool[0], pool[3]
	dup := mustSP(t, `dblp.venue="INFOCOM"`, 0.5)

	merged := mustSP(t, `dblp.venue="INFOCOM"`, hypre.FAnd(a.Intensity, dup.Intensity))
	_, fpSplit := CanonicalProfile([]hypre.ScoredPred{a, b, dup})
	_, fpSplitOther := CanonicalProfile([]hypre.ScoredPred{dup, b, a})
	_, fpMerged := CanonicalProfile([]hypre.ScoredPred{merged, b})
	if fpSplit != fpMerged || fpSplitOther != fpMerged {
		t.Fatalf("duplicate predicate weightings did not merge: %s / %s vs %s", fpSplit, fpSplitOther, fpMerged)
	}
}

// TestFingerprintNegativeDropped: negative-intensity preferences (skipped by
// every TA path) do not contribute to the fingerprint.
func TestFingerprintNegativeDropped(t *testing.T) {
	pool := fpPool(t)
	neg := mustSP(t, `dblp.year=1999`, -0.7)
	_, with := CanonicalProfile([]hypre.ScoredPred{pool[0], neg, pool[1]})
	_, without := CanonicalProfile([]hypre.ScoredPred{pool[0], pool[1]})
	if with != without {
		t.Fatalf("negative preference leaked into fingerprint")
	}
	canon, _ := CanonicalProfile([]hypre.ScoredPred{neg})
	if len(canon) != 0 {
		t.Fatalf("all-negative profile should canonicalize empty, got %d entries", len(canon))
	}
	// Zero intensity is a real grade (it can fill top-k slots) and must stay.
	zero := mustSP(t, `dblp.year=2001`, 0)
	canon, _ = CanonicalProfile([]hypre.ScoredPred{zero})
	if len(canon) != 1 {
		t.Fatalf("zero-intensity preference must survive canonicalization")
	}
}

// TestFingerprintDistinct: random distinct profiles (different predicate
// subsets or different intensities) get distinct fingerprints — 128-bit FNV
// collisions aside, which this seeded draw does not produce.
func TestFingerprintDistinct(t *testing.T) {
	pool := fpPool(t)
	rng := rand.New(rand.NewSource(2))
	seen := map[Fingerprint]string{}
	record := func(canon []hypre.ScoredPred, fp Fingerprint) {
		key := ""
		for _, p := range canon {
			key += p.Pred + "@" + p.Attr + "#"
		}
		if prev, ok := seen[fp]; ok && prev != key {
			t.Fatalf("distinct canonical profiles share a fingerprint:\n%s\n%s", prev, key)
		}
		seen[fp] = key
	}
	// All subsets of the pool (identity by predicate set).
	for mask := 1; mask < 1<<len(pool); mask++ {
		var prof []hypre.ScoredPred
		for i, p := range pool {
			if mask&(1<<i) != 0 {
				prof = append(prof, p)
			}
		}
		canon, fp := CanonicalProfile(prof)
		record(canon, fp)
	}
	// Same subset, perturbed intensity must move the fingerprint.
	for trial := 0; trial < 100; trial++ {
		i := rng.Intn(len(pool))
		bumped := pool[i]
		bumped.Intensity = rng.Float64()
		_, fpA := CanonicalProfile([]hypre.ScoredPred{pool[i]})
		_, fpB := CanonicalProfile([]hypre.ScoredPred{bumped})
		if bumped.Intensity != pool[i].Intensity && fpA == fpB {
			t.Fatalf("intensity change did not move the fingerprint")
		}
	}
}

// TestFingerprintStringIsHex: String renders what fmt's %x renders, over
// random fingerprints.
func TestFingerprintStringIsHex(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1000; trial++ {
		var fp Fingerprint
		rng.Read(fp[:])
		if got, want := fp.String(), fmt.Sprintf("%x", fp[:]); got != want {
			t.Fatalf("String() = %s, want %s", got, want)
		}
	}
}

// TestCanonicalizeKeepsCanonicalProfile: a Canonical carries exactly the
// list and key CanonicalProfile returns.
func TestCanonicalizeKeepsCanonicalProfile(t *testing.T) {
	pool := fpPool(t)
	prof := []hypre.ScoredPred{pool[3], pool[0], pool[3], pool[6]}
	canon, fp := CanonicalProfile(prof)
	c := Canonicalize(prof)
	if c.Fingerprint() != fp || fmt.Sprint(c.Prefs()) != fmt.Sprint(canon) {
		t.Fatalf("Canonicalize = (%v, %s), CanonicalProfile = (%v, %s)", c.Prefs(), c.Fingerprint(), canon, fp)
	}
}
