package shard

import (
	"fmt"
	"sync"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// ShardedUpdatable is the updatable sharded engine: each shard is a
// core.Updatable (in-place insert, or a synchronous retrain-and-swap of that
// shard alone when its engine refuses, §6.5). The payoff over a single
// Updatable is that an insertion the engine cannot absorb only ever retrains
// the shard it covers — untouched shards keep their models — and readers
// never block: they load each shard's engine through its atomic.Pointer, so a
// rebuild is invisible except for the rule it carries.
//
// Updates (Insert/Delete/ModifyAction/Commit) may be called concurrently
// with lookups, but serialize among themselves per shard; replicated rules
// (shorter than the shard prefix) are applied to every covered shard.
type ShardedUpdatable struct {
	router
	shards []*core.Updatable
	// wmu is the span lock of replicated rules: Insert, Delete and
	// ModifyAction hold the lock of every shard they cover, taken in ascending
	// order, so two updates of overlapping spans apply in one order on every
	// shard and a rolled-back insert is never seen half applied by another
	// writer. Commit does not take it: it changes no rule, and each
	// core.Updatable already makes an update wait for its own commit's swap.
	// Readers never take these locks.
	wmu []sync.Mutex
}

// BuildUpdatable builds a sharded engine wrapped shard-by-shard in
// core.Updatable. The fourth argument is ignored: it sized the per-shard
// delta buffer this engine no longer has, and stays only for callers written
// against that signature.
func BuildUpdatable(rs *lpm.RuleSet, cfg core.Config, nShards, _ int) (*ShardedUpdatable, error) {
	r, parts, err := plan(rs, nShards)
	if err != nil {
		return nil, err
	}
	engines, err := buildEngines(rs.Width, cfg, parts)
	if err != nil {
		return nil, err
	}
	u := &ShardedUpdatable{
		router: r,
		shards: make([]*core.Updatable, len(engines)),
		wmu:    make([]sync.Mutex, len(engines)),
	}
	for i, e := range engines {
		u.shards[i] = core.NewUpdatable(e)
	}
	u.registerGauges(func(i int) int { return u.shards[i].Engine().Ranges().Len() })
	u.registerObserverGauges(u.Engine)
	return u, nil
}

// Engine returns shard i's current live engine (read-only use).
func (u *ShardedUpdatable) Engine(i int) *core.Engine { return u.shards[i].Engine() }

// Lookup routes k to its shard and answers it from that shard's live engine.
// Safe for concurrent use, including with updates. Like every Lookup* variant
// it must answer exactly what a trie oracle over the installed rules answers
// (planetest's parameterized harness).
func (u *ShardedUpdatable) Lookup(k keys.Value) (uint64, bool) {
	i := u.ShardOf(k)
	u.loads[i].n.Add(1)
	return u.shards[i].Lookup(k)
}

// LookupBatch resolves a batch positionally into a fresh slice:
// LookupBatchInto with no dst.
func (u *ShardedUpdatable) LookupBatch(ks []keys.Value) []Result {
	return u.LookupBatchInto(ks, nil)
}

// LookupBatchInto is the updatable sharded batch: dst[i] answers ks[i] (dst is
// reused when it has the capacity; nil allocates), every shard group answered
// on the calling goroutine through its shard's live engine's LookupBatch.
// Each key's answer is individually consistent: it reflects either the pre-
// or post-swap engine of its shard, never a mix.
func (u *ShardedUpdatable) LookupBatchInto(ks []keys.Value, dst []Result) []Result {
	return u.lookupBatch(ks, dst, func(shard int, gk []keys.Value, res []Result) {
		u.shards[shard].Engine().LookupBatch(gk, res[:0])
	})
}

// coveredShards returns the inclusive shard range for a prefix/length.
func (u *ShardedUpdatable) coveredShards(prefix keys.Value, length int) (int, int) {
	return shardSpan(u.width, u.shardBits, lpm.Rule{Prefix: prefix, Len: length})
}

func (u *ShardedUpdatable) lockSpan(lo, hi int) {
	for s := lo; s <= hi; s++ {
		u.wmu[s].Lock()
	}
}

func (u *ShardedUpdatable) unlockSpan(lo, hi int) {
	for s := lo; s <= hi; s++ {
		u.wmu[s].Unlock()
	}
}

// Insert installs r in every shard it covers — absorbed by the shard's live
// engine, or retrained into a rebuilt one before Insert returns; queries see
// it once Insert returns either way. On a partial failure (a shard's rebuild
// failed) the insertion is rolled back from the shards that already accepted
// it, so a failed Insert leaves no shard with the rule.
func (u *ShardedUpdatable) Insert(r lpm.Rule) error {
	if err := r.Validate(u.width); err != nil {
		return err
	}
	lo, hi := u.coveredShards(r.Prefix, r.Len)
	u.lockSpan(lo, hi)
	defer u.unlockSpan(lo, hi)
	for s := lo; s <= hi; s++ {
		if err := u.shards[s].Insert(r); err != nil {
			for b := lo; b < s; b++ {
				u.shards[b].Delete(r.Prefix, r.Len)
			}
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// Delete removes the rule from every covered shard through the live
// engine's no-retrain path.
func (u *ShardedUpdatable) Delete(prefix keys.Value, length int) error {
	lo, hi := u.coveredShards(prefix, length)
	u.lockSpan(lo, hi)
	defer u.unlockSpan(lo, hi)
	var firstErr error
	for s := lo; s <= hi; s++ {
		if err := u.shards[s].Delete(prefix, length); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return firstErr
}

// ModifyAction rewrites an installed rule's action in every covered shard
// without retraining (§6.5).
func (u *ShardedUpdatable) ModifyAction(prefix keys.Value, length int, action uint64) error {
	lo, hi := u.coveredShards(prefix, length)
	u.lockSpan(lo, hi)
	defer u.unlockSpan(lo, hi)
	var firstErr error
	for s := lo; s <= hi; s++ {
		if err := u.shards[s].ModifyAction(prefix, length, action); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return firstErr
}

// Commit re-densifies shard i: it retrains the shard's engine over its live
// rules and swaps it in atomically, folding its spill records back into dense
// buckets. Lookups proceed against the old engine for the duration. It takes
// no lock of its own: the shard's core.Updatable serializes it with that
// shard's updates.
func (u *ShardedUpdatable) Commit(i int) error {
	start := time.Now()
	err := u.shards[i].Commit()
	metRebuildMs.ObserveInt(int(time.Since(start).Milliseconds()))
	if err != nil {
		metCommitErrs.Inc()
		return fmt.Errorf("shard %d: %w", i, err)
	}
	metCommits.Inc()
	return nil
}

// Close releases nothing and returns nil: a ShardedUpdatable owns no
// goroutine. It stays for callers written when it stopped one.
func (u *ShardedUpdatable) Close() error { return nil }

// Verify checks every shard's live engine against the trie oracle.
func (u *ShardedUpdatable) Verify() error {
	for i, s := range u.shards {
		if err := s.Engine().Verify(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
