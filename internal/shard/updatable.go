package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// ShardedUpdatable is the updatable engine, and the only one: one shard — no
// routing bits, the global model — is its degenerate case. Each shard is a
// slot holding its live engine and its writer lock. Every write lands in
// place in the live engine of each shard it covers, and the shard's writer
// then publishes what core.Engine.Compact returns: the same engine, or — once
// it is overgrown (a bucket past 64 ranges, an SRAM-only engine's first
// spill, or an action table past its limit) — one retrained for that shard
// alone, untouched shards keeping their models (§6.5: modify in place, or
// retrain and swap). Readers never block: they load each shard's engine
// through its atomic pointer, so a rebuild is invisible except for what it
// sheds.
//
// Updates (Insert/Delete/ModifyAction/Commit) may be called concurrently
// with lookups, but serialize among themselves per shard; replicated rules
// (shorter than the shard prefix) are applied to every covered shard. A
// failed retrain fails no write: the rule already answers from the engine it
// landed in, and the next write's Compact retries.
type ShardedUpdatable struct {
	width     int
	shardBits int // routing bits: the top shardBits of a key pick its shard
	shards    []slot
}

// slot is one shard. Its writer lock is held for the whole of every update
// of the shard, a rebuild included: an update that arrives while a rebuild
// runs waits for its swap and lands on the new engine, so no swap can undo
// one. Insert, Delete and ModifyAction hold the lock of every shard they
// cover, taken in ascending order, so two updates of overlapping spans apply
// in one order on every shard; Commit holds its shard's alone. Readers never
// take it. The padding keeps each shard's pointer and lock off the cache
// lines of the others, so a writer on one shard does not disturb readers
// loading another's engine.
type slot struct {
	engine atomic.Pointer[core.Engine]
	mu     sync.Mutex
	_      [48]byte
}

// BuildUpdatable builds an updatable engine of nShards shards. Its engines
// keep rs's rules as their rule tables, with no copy (only a shard that
// receives a replicated rule shorter than the routing bits holds its part
// copied), and never write into them: the caller must not modify rs
// afterwards. The fourth argument is ignored: it sized the per-shard delta buffer this engine no
// longer has, and stays only for callers written against that signature.
func BuildUpdatable(rs *lpm.RuleSet, cfg core.Config, nShards, _ int) (*ShardedUpdatable, error) {
	bits, parts, err := plan(rs, nShards)
	if err != nil {
		return nil, err
	}
	engines, err := buildEngines(rs.Width, cfg, parts)
	if err != nil {
		return nil, err
	}
	u := &ShardedUpdatable{
		width:     rs.Width,
		shardBits: bits,
		shards:    make([]slot, len(engines)),
	}
	for i, e := range engines {
		u.shards[i].engine.Store(e)
	}
	u.registerGauges()
	return u, nil
}

// Engine returns shard i's current live engine (read-only use).
func (u *ShardedUpdatable) Engine(i int) *core.Engine { return u.shards[i].engine.Load() }

// Lookup routes k to its shard and answers it from that shard's live engine.
// Safe for concurrent use, including with updates. Like every Lookup* variant
// it must answer exactly what a trie oracle over the installed rules answers
// (planetest's parameterized harness).
func (u *ShardedUpdatable) Lookup(k keys.Value) (uint64, bool) {
	return u.Engine(u.ShardOf(k)).Lookup(k)
}

// LookupBatch resolves a batch positionally into a fresh slice:
// LookupBatchInto with no dst.
func (u *ShardedUpdatable) LookupBatch(ks []keys.Value) []Result {
	return u.LookupBatchInto(ks, nil)
}

// write applies op to the live engine of every shard prefix/length covers,
// under their writer locks taken in ascending order, and publishes what each
// engine's Compact returns. It returns op's first error.
func (u *ShardedUpdatable) write(prefix keys.Value, length int, op func(e *core.Engine) error) error {
	lo, hi := shardSpan(u.width, u.shardBits, lpm.Rule{Prefix: prefix, Len: length})
	for s := lo; s <= hi; s++ {
		u.shards[s].mu.Lock()
		defer u.shards[s].mu.Unlock()
	}
	var firstErr error
	for s := lo; s <= hi; s++ {
		e := u.Engine(s)
		if err := op(e); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", s, err)
		}
		u.shards[s].engine.Store(e.Compact())
	}
	return firstErr
}

// Insert installs r in every shard it covers, in place; queries see it once
// Insert returns.
func (u *ShardedUpdatable) Insert(r lpm.Rule) error {
	if err := r.Validate(u.width); err != nil {
		return err
	}
	return u.write(r.Prefix, r.Len, func(e *core.Engine) error { return e.Insert(r) })
}

// Delete removes the rule from every covered shard without retraining.
func (u *ShardedUpdatable) Delete(prefix keys.Value, length int) error {
	return u.write(prefix, length, func(e *core.Engine) error { return e.Delete(prefix, length) })
}

// ModifyAction rewrites an installed rule's action in every covered shard
// without retraining (§6.5).
func (u *ShardedUpdatable) ModifyAction(prefix keys.Value, length int, action uint64) error {
	return u.write(prefix, length, func(e *core.Engine) error { return e.ModifyAction(prefix, length, action) })
}

// Commit re-densifies shard i under its writer lock: it retrains the shard's
// engine over its live rules (Engine.Rebuild) and swaps it in atomically,
// folding its spill records back into dense buckets. Lookups proceed against
// the old engine for the duration. A failure leaves the shard as it was.
func (u *ShardedUpdatable) Commit(i int) error {
	s := &u.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.engine.Load().Rebuild()
	if err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	s.engine.Store(next)
	return nil
}

// Close releases nothing and returns nil: a ShardedUpdatable owns no
// goroutine. It stays for callers written when it stopped one.
func (u *ShardedUpdatable) Close() error { return nil }

// Verify checks every shard's live engine against the trie oracle.
func (u *ShardedUpdatable) Verify() error {
	for i := range u.shards {
		if err := u.Engine(i).Verify(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
