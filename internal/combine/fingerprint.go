package combine

import (
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"sort"

	"hypre/internal/hypre"
)

// This file defines the canonical profile fingerprint the result/plan cache
// tier keys on. At serving scale repeated preference profiles are the
// common case, but two sessions rarely hand the engine byte-identical
// slices: the same preferences arrive permuted, or split into duplicate
// entries whose intensities compose to the same weight. Canonicalization
// maps every such variant to one normal form, and the fingerprint is a
// 128-bit FNV-1a hash of that form — deterministic across processes, so
// cache keys survive serialization and can be compared in logs.

// Fingerprint is the 128-bit canonical-profile hash.
type Fingerprint [16]byte

// String renders the fingerprint as hex, for logs and test failures.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// Canonical is a profile in canonical form together with its fingerprint.
// Its fields are unexported and only Canonicalize fills them, from one
// CanonicalProfile result, so a holder can hand the profile on without
// canonicalizing it again and no caller can pair one profile with another
// profile's key. The zero Canonical holds no preferences.
type Canonical struct {
	prefs []hypre.ScoredPred
	fp    Fingerprint
}

// Canonicalize runs CanonicalProfile and keeps its result as one value.
func Canonicalize(prefs []hypre.ScoredPred) Canonical {
	canon, fp := CanonicalProfile(prefs)
	return Canonical{prefs: canon, fp: fp}
}

// Prefs is the canonical preference list; callers must not modify it.
func (c Canonical) Prefs() []hypre.ScoredPred { return c.prefs }

// Fingerprint is the canonical profile's cache key.
func (c Canonical) Fingerprint() Fingerprint { return c.fp }

// CanonicalProfile reduces a preference profile to the normal form the
// top-k paths actually evaluate, plus its fingerprint:
//
//   - negative-intensity preferences are dropped (every TA path — BuildLists,
//     EvaluateStreaming, EvaluateOneShot — skips them identically);
//   - duplicate preferences (same normalized predicate text) merge into one
//     entry whose intensity is the f∧ fold of the duplicates' intensities,
//     folded in descending-intensity order — exactly the composition the
//     grade accumulation would have applied to the duplicates one by one;
//   - the surviving preferences sort by (attribute, predicate text), fixing
//     both the per-attribute fold order and the attribute-list order that
//     BuildLists otherwise inherits from first-seen profile order.
//
// Two profiles that are permutations of each other, or that split a weight
// across duplicate predicates, therefore canonicalize to the same slice and
// the same fingerprint. The caching tier evaluates the canonical slice it
// fingerprints, so a fingerprint hit always returns the bytes the canonical
// evaluation would have produced.
func CanonicalProfile(prefs []hypre.ScoredPred) ([]hypre.ScoredPred, Fingerprint) {
	kept := make([]hypre.ScoredPred, 0, len(prefs))
	for _, p := range prefs {
		if p.Intensity >= 0 {
			kept = append(kept, p)
		}
	}
	// Sort before merging so duplicate runs are adjacent and the f∧ fold
	// over them is order-deterministic (descending intensity within a
	// predicate, ties already equal).
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].Attr != kept[j].Attr {
			return kept[i].Attr < kept[j].Attr
		}
		if kept[i].Pred != kept[j].Pred {
			return kept[i].Pred < kept[j].Pred
		}
		return kept[i].Intensity > kept[j].Intensity
	})
	out := kept[:0]
	for _, p := range kept {
		if n := len(out); n > 0 && out[n-1].Pred == p.Pred && out[n-1].Attr == p.Attr {
			out[n-1].Intensity = hypre.FAnd(out[n-1].Intensity, p.Intensity)
			continue
		}
		out = append(out, p)
	}

	h := fnv.New128a()
	var word [8]byte
	for _, p := range out {
		h.Write([]byte(p.Attr))
		h.Write([]byte{0x1f})
		h.Write([]byte(p.Pred))
		h.Write([]byte{0x1f})
		binary.BigEndian.PutUint64(word[:], math.Float64bits(p.Intensity))
		h.Write(word[:])
		h.Write([]byte{0x1e})
	}
	var fp Fingerprint
	h.Sum(fp[:0])
	return out, fp
}

// ProfileFingerprint is CanonicalProfile when only the key is needed.
func ProfileFingerprint(prefs []hypre.ScoredPred) Fingerprint {
	_, fp := CanonicalProfile(prefs)
	return fp
}
