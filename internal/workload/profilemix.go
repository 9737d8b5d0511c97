package workload

import (
	"math/rand"
)

// This file generates the serving-path read workload: a seeded Zipf-skewed
// sequence of profile owners, modeling a preference-serving front end where
// a small set of hot users issues most of the top-k queries. The cacheserve
// experiment replays the same sequence against the cached and uncached
// evaluation paths.

// ProfileMixConfig controls the Zipf draw.
type ProfileMixConfig struct {
	Seed int64
	// S is the Zipf skew exponent (must be > 1; larger = hotter head).
	S float64
	// Distinct caps how many users participate (0 = everyone offered).
	Distinct int
}

// DefaultProfileMixConfig is the cacheserve mix: skew 1.3 over 64 users —
// hot enough that repeats dominate, long-tailed enough that the cache keeps
// missing on cold profiles throughout the run.
func DefaultProfileMixConfig() ProfileMixConfig {
	return ProfileMixConfig{Seed: 11, S: 1.3, Distinct: 64}
}

// ProfileMix is a materialized query sequence plus its popularity ranking.
type ProfileMix struct {
	// Seq is the replay order: Seq[i] is the uid of query i.
	Seq []int64
	// Ranked lists the participating users, hottest first.
	Ranked []int64
}

// ZipfProfileSequence draws n queries over users under cfg. Rank-to-user
// assignment is a seeded shuffle, so the hottest profile is an arbitrary
// user rather than whoever sorts first; the same (users, n, cfg) always
// yields the same sequence.
func ZipfProfileSequence(users []int64, n int, cfg ProfileMixConfig) *ProfileMix {
	if len(users) == 0 || n <= 0 {
		return &ProfileMix{}
	}
	if cfg.S <= 1 {
		cfg.S = DefaultProfileMixConfig().S
	}
	pool := make([]int64, len(users))
	copy(pool, users)
	rng := rand.New(rand.NewSource(cfg.Seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if cfg.Distinct > 0 && len(pool) > cfg.Distinct {
		pool = pool[:cfg.Distinct]
	}
	z := rand.NewZipf(rng, cfg.S, 1, uint64(len(pool)-1))
	seq := make([]int64, n)
	for i := range seq {
		seq[i] = pool[z.Uint64()]
	}
	return &ProfileMix{Seq: seq, Ranked: pool}
}
