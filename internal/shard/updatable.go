package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
)

// ShardedUpdatable is the updatable sharded engine: each shard is a
// core.Updatable (in-place insert, with delta buffer + atomic engine swap as
// its overflow path, §6.5), and a background committer rebuilds dirty shards
// off the hot path. The payoff over a single Updatable is that an insertion
// the engine cannot absorb only ever retrains the shard it covers — untouched
// shards keep their models — and readers never block: they load each shard's
// engine through the existing atomic.Pointer snapshot, so a commit is
// invisible except for the action change it carries.
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

	threshold atomic.Int64  // auto-commit when a shard's pending ≥ threshold
	kick      chan struct{} // nudges the committer before the next tick
	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// The robustness plane (DESIGN.md §11): per-shard failure state,
	// retry schedule and staleness budget. states is index-aligned with
	// shards; each entry has its own mutex so health reads never block on
	// an in-flight retrain.
	states      []shardState
	backoff     core.Backoff
	staleBudget atomic.Int64 // time.Duration; Degraded→Stale threshold
}

// BuildUpdatable builds a sharded engine wrapped shard-by-shard in
// core.Updatable. capacity is the per-shard delta-buffer size (≤ 0 selects
// core.DefaultDeltaCapacity). Call Close when done (stops the background
// committer).
func BuildUpdatable(rs *lpm.RuleSet, cfg core.Config, nShards, capacity int) (*ShardedUpdatable, error) {
	r, parts, err := plan(rs, nShards)
	if err != nil {
		return nil, err
	}
	engines, err := buildEngines(rs.Width, cfg, parts)
	if err != nil {
		return nil, err
	}
	u := &ShardedUpdatable{
		router:  r,
		shards:  make([]*core.Updatable, len(engines)),
		wmu:     make([]sync.Mutex, len(engines)),
		stop:    make(chan struct{}),
		kick:    make(chan struct{}, 1),
		states:  make([]shardState, len(engines)),
		backoff: core.DefaultBackoff,
	}
	u.staleBudget.Store(int64(DefaultStaleBudget))
	for i, e := range engines {
		u.shards[i] = core.NewUpdatable(e, capacity)
	}
	u.registerGauges(func(i int) int { return u.shards[i].Engine().Ranges().Len() })
	u.registerHealthGauges()
	u.registerObserverGauges(u.Engine)
	return u, nil
}

// Engine returns shard i's current live engine (read-only use).
func (u *ShardedUpdatable) Engine(i int) *core.Engine { return u.shards[i].Engine() }

// Lookup answers one key: the key's shard consults its delta buffer and its
// engine, longest prefix wins. Like every Lookup* variant it must answer
// exactly what a trie oracle over the installed+pending rules answers
// (planetest's parameterized harness).
func (u *ShardedUpdatable) Lookup(k keys.Value) (uint64, bool) {
	a, ok, _ := u.LookupStack(plane.StackConfig{}, k)
	return a, ok
}

// LookupStack routes k to its shard and answers it — delta overlay included
// — through the stack selected by st. Cached stacks check a spare cache out
// for the call. Safe for concurrent use, including with updates: the shard's
// epoch is loaded before its delta or engine is read, so a fill can never
// pin a pre-update answer past the update.
func (u *ShardedUpdatable) LookupStack(st plane.StackConfig, k keys.Value) (uint64, bool, lcache.Outcome) {
	i := u.ShardOf(k)
	u.loads[i].n.Add(1)
	if !st.Cached {
		return u.shards[i].LookupStack(st, k, nil)
	}
	c := u.cache.Get()
	a, m, o := u.shards[i].LookupStack(st, k, c)
	u.cache.Put(c)
	return a, m, o
}

// LookupBatch resolves a batch positionally into a fresh slice:
// LookupBatchStack with the cache plane (when enabled) and no dst.
func (u *ShardedUpdatable) LookupBatch(ks []keys.Value) []Result {
	return u.LookupBatchStack(plane.StackConfig{Cached: true}, ks, nil)
}

// LookupBatchStack is the updatable sharded batch executor: dst[i] answers
// ks[i] (dst is reused when it has the capacity; nil allocates), every shard
// group answered on the calling goroutine. Each key's answer is individually
// consistent: it reflects either the pre- or post-commit state of its shard,
// never a mix. A shard whose delta buffer is empty answers its whole group
// through the engine-level batch stack for st (delta empty ⇒
// Updatable.Lookup ≡ engine lookup); shards with pending insertions fall back
// to the per-key overlay lookup on the same inference plane. Cached stacks
// check a spare cache out per group and probe it first on both paths. The
// epoch is loaded BEFORE the PendingInserts check: an insert landing after
// the load bumps the epoch, so results this group caches are already dead —
// closing the window where an engine-only answer computed before the insert
// could be cached under the post-insert epoch.
func (u *ShardedUpdatable) LookupBatchStack(st plane.StackConfig, ks []keys.Value, dst []Result) []Result {
	return u.lookupBatch(ks, dst, func(shard int, gk []keys.Value, res []Result) {
		s := u.shards[shard]
		var c *lcache.Cache
		if st.Cached {
			c = u.cache.Get()
			defer u.cache.Put(c)
		}
		epoch := s.CacheEpoch().Load()
		if s.PendingInserts() == 0 {
			s.Engine().LookupBatchStack(st, gk, res[:0], cachesim.Null{}, c, epoch)
			return
		}
		overlay := st
		overlay.Cached = false
		if !st.Cached || c.Bypassed(len(gk)) {
			for i, k := range gk {
				res[i].Action, res[i].Matched, _ = s.LookupStack(overlay, k, nil)
			}
			return
		}
		for i, k := range gk {
			a, m, o := c.Get(k, epoch)
			if o != lcache.Hit {
				a, m, _ = s.LookupStack(overlay, k, nil)
				c.Put(k, epoch, a, m)
			}
			res[i] = Result{Action: a, Matched: m}
		}
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
// engine, or placed in its delta buffer (§6.5 TCAM-analogue) to be retrained
// in at commit; queries see it immediately either way. On a partial failure
// (e.g. one shard's buffer is full) the insertion is rolled back from the
// shards that already accepted it.
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
	if th := u.threshold.Load(); th > 0 && u.shards[lo].PendingInserts() >= int(th) {
		select {
		case u.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// Delete removes the rule from every covered shard (delta buffer first,
// then the live engine's no-retrain path).
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

// PendingInserts sums the delta-buffer occupancy across shards.
func (u *ShardedUpdatable) PendingInserts() int {
	total := 0
	for _, s := range u.shards {
		total += s.PendingInserts()
	}
	return total
}

// Commit rebuilds shard i from its merged rule-set and swaps it in
// atomically. Lookups proceed against the old engine for the duration.
// Success and failure both feed the shard's health state: a failure
// schedules a backed-off background retry, a success clears any pending
// failure (the LastCommitErr contract). It takes no lock of its own: the
// shard's core.Updatable serializes it with that shard's updates.
func (u *ShardedUpdatable) Commit(i int) error {
	st := &u.states[i]
	st.mu.Lock()
	if st.consecFails > 0 {
		metCommitRetries.Inc()
	}
	st.mu.Unlock()
	start := time.Now()
	err := u.shards[i].Commit()
	metRebuildMs.ObserveInt(int(time.Since(start).Milliseconds()))
	if err != nil {
		metCommitErrs.Inc()
		err = fmt.Errorf("shard %d: %w", i, err)
		st.recordFailure(err, u.backoff)
		return err
	}
	metCommits.Inc()
	st.recordSuccess()
	return nil
}

// CommitAll commits every shard with pending insertions, sequentially (one
// retrain's worth of CPU at a time, like the background committer).
func (u *ShardedUpdatable) CommitAll() error {
	var firstErr error
	for i, s := range u.shards {
		if s.PendingInserts() == 0 {
			continue
		}
		if err := u.Commit(i); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// StartAutoCommit launches the background committer: every interval (and
// immediately once any shard's pending insertions reach threshold) it
// commits each dirty shard, one at a time, off the query path. A failing
// shard is retried on the capped-exponential backoff schedule without
// blocking the other shards' commits. interval ≤ 0 selects 100ms;
// threshold ≤ 0 disables the early nudge (time-based only).
func (u *ShardedUpdatable) StartAutoCommit(interval time.Duration, threshold int) {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	u.threshold.Store(int64(threshold))
	u.wg.Add(1)
	go u.commitLoop(interval)
}

// RebalanceTiers runs one tier placement pass on every shard's current live
// engine (no-op for untiered configs) and returns the totals — the one-pass
// helper the tier experiment (E28) and planetest drive; nothing in the
// serving path calls it (DESIGN.md §16). Each shard's
// migrations publish through its own epoch inside RebalanceTier, so a cached
// reader of shard i is invalidated exactly when shard i's placement moved.
func (u *ShardedUpdatable) RebalanceTiers() (promoted, demoted int) {
	for i := range u.shards {
		p, d := u.Engine(i).RebalanceTier()
		promoted += p
		demoted += d
	}
	return promoted, demoted
}

// commitLoop wakes on the ticker, on a writer's kick, or when a backed-off
// shard becomes retryable — whichever is earliest. The kick channel holds
// one buffered nudge, which is sufficient re-arming: a kick raced with an
// in-flight pass parks in the buffer and re-triggers a full scan, and every
// pass scans all shards, so a dirty shard is never stranded until the next
// timer tick (regression-tested by TestKickDuringInFlightCommitNotStranded).
func (u *ShardedUpdatable) commitLoop(interval time.Duration) {
	defer u.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	retry := time.NewTimer(time.Hour)
	if !retry.Stop() {
		<-retry.C
	}
	for {
		var retryC <-chan time.Time
		if d, ok := u.earliestRetry(); ok {
			retry.Reset(max(d, time.Millisecond))
			retryC = retry.C
		}
		select {
		case <-u.stop:
			return
		case <-t.C:
		case <-u.kick:
		case <-retryC:
		}
		if retryC != nil && !retry.Stop() {
			select {
			case <-retry.C:
			default:
			}
		}
		u.commitPass()
	}
}

// earliestRetry returns the wait until the soonest backed-off dirty shard
// becomes retryable (false when no shard is awaiting retry).
func (u *ShardedUpdatable) earliestRetry() (time.Duration, bool) {
	var best time.Time
	for i := range u.states {
		st := &u.states[i]
		st.mu.Lock()
		at := st.retryAt
		st.mu.Unlock()
		if at.IsZero() || u.shards[i].PendingInserts() == 0 {
			continue
		}
		if best.IsZero() || at.Before(best) {
			best = at
		}
	}
	if best.IsZero() {
		return 0, false
	}
	return time.Until(best), true
}

// commitPass commits every dirty shard that is not waiting out a backoff.
func (u *ShardedUpdatable) commitPass() {
	now := time.Now()
	for i, s := range u.shards {
		if s.PendingInserts() == 0 {
			// A failure whose pending rules were since withdrawn has
			// nothing left to be stale about.
			u.states[i].clearIfIdle()
			continue
		}
		st := &u.states[i]
		st.mu.Lock()
		wait := st.retryAt
		st.mu.Unlock()
		if !wait.IsZero() && now.Before(wait) {
			continue
		}
		u.Commit(i) // outcome recorded in the shard's state
	}
}

// LastCommitErr returns the most recent unresolved commit failure across
// shards — non-nil while any shard is degraded or stale, nil once every
// failing shard has since committed successfully (or had its pending rules
// withdrawn).
func (u *ShardedUpdatable) LastCommitErr() error {
	var (
		newest   error
		newestAt time.Time
	)
	for i := range u.states {
		st := &u.states[i]
		if u.shards[i].PendingInserts() == 0 {
			// The failure's pending rules were withdrawn (or a concurrent
			// commit just drained them): resolve it here rather than waiting
			// for the next background pass.
			st.clearIfIdle()
			continue
		}
		st.mu.Lock()
		if st.lastErr != nil && (newest == nil || st.lastErrAt.After(newestAt)) {
			newest, newestAt = st.lastErr, st.lastErrAt
		}
		st.mu.Unlock()
	}
	return newest
}

// Close stops the background committer — the only goroutine a
// ShardedUpdatable owns — and nothing else: lookups and updates remain valid
// afterwards, including batches in flight on other goroutines while it runs
// (TestLookupBatchSurvivesClose); pending insertions simply stay in their
// delta buffers until an explicit Commit. It fails loudly when a commit
// failure is still unresolved — pending rules exist that never made it into
// a trained engine — so callers cannot silently discard a dirty shard.
func (u *ShardedUpdatable) Close() error {
	u.closeOnce.Do(func() {
		close(u.stop)
		u.wg.Wait()
	})
	if err := u.LastCommitErr(); err != nil {
		return fmt.Errorf("shard: closed with unresolved commit failure (%d rules pending): %w",
			u.PendingInserts(), err)
	}
	return nil
}

// Verify checks every shard's live engine against the trie oracle. Pending
// delta-buffer rules are not part of the engines, so callers normally
// CommitAll first.
func (u *ShardedUpdatable) Verify() error {
	for i, s := range u.shards {
		if err := s.Engine().Verify(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
