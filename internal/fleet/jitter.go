package fleet

import (
	"math/rand"
	"time"
)

// Jitter spreads a periodic ticker's intervals so fleet members
// configured with the same seed do not fire in lockstep: N daemons
// sweeping anti-entropy at the same instant all slam every peer's
// /v1/digest at once (a thundering herd that recurs every period,
// because identical seeds drift identically). Each member derives its
// stream from the shared fleet seed mixed with its own name, so the
// schedule is reproducible run-to-run for a given (seed, name) pair —
// the determinism contract — while differing across members.
type Jitter struct {
	rng  *rand.Rand
	base time.Duration
}

// NewJitter builds a jittered interval source around base for the
// named member. Intervals are drawn uniformly from [0.75, 1.25) of
// base, so the mean period is base and two same-seed members drift
// apart within a few ticks.
func NewJitter(seed int64, name string, base time.Duration) *Jitter {
	return &Jitter{
		rng:  rand.New(rand.NewSource(seed ^ int64(hash64(name)))),
		base: base,
	}
}

// Next returns the next interval. Not safe for concurrent use — each
// ticker loop owns its Jitter.
func (j *Jitter) Next() time.Duration {
	if j.base <= 0 {
		return 0
	}
	spread := int64(j.base / 2)
	if spread <= 0 {
		return j.base
	}
	return j.base - j.base/4 + time.Duration(j.rng.Int63n(spread))
}
