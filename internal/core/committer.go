package core

import (
	"math/rand"
	"time"
)

// Backoff computes capped exponential retry delays for failed background
// commits. A failed retrain is retried, not abandoned: the delta buffer
// keeps serving the pending rules, so the only cost of waiting is
// staleness, and hammering a failing rebuild (e.g. an allocation-starved
// host) with immediate retries makes the outage worse. Jitter desynchronizes
// shards that fail together.
type Backoff struct {
	Base time.Duration // delay after the first failure
	Cap  time.Duration // upper bound on the exponential growth
}

// DefaultBackoff is the committer's retry schedule: 25ms doubling to a 2s
// ceiling — a transient failure retries almost immediately, a persistent
// one settles at one attempt every ~2s.
var DefaultBackoff = Backoff{Base: 25 * time.Millisecond, Cap: 2 * time.Second}

// Delay returns the wait before retry number consecutive (≥ 1): base
// doubled per prior failure, capped, with ±25% jitter. The jitter draw
// uses math/rand's thread-safe top-level source — retry spacing is not
// part of any determinism contract.
func (b Backoff) Delay(consecutive int) time.Duration {
	if b.Base <= 0 {
		b.Base = DefaultBackoff.Base
	}
	if b.Cap <= 0 {
		b.Cap = DefaultBackoff.Cap
	}
	d := b.Base
	for i := 1; i < consecutive && d < b.Cap; i++ {
		d *= 2
	}
	d = min(d, b.Cap)
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	return d + jitter
}
