// The writer lock (DESIGN.md §11): a rebuild holds its shard's lock from its
// snapshot of the live rules to its swap, so an update that arrives meanwhile
// waits and lands on the engine the rebuild installs.
package shard

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// TestInsertDuringCommitIsNotLost races inserts against commits. An insert a
// shard's live engine absorbs while a commit is rebuilding from that engine's
// rules would vanish at the swap, so Insert must wait for the swap — it loads
// the engine under the lock the commit holds — and land on the new engine;
// every acknowledged insert is answered after every swap.
func TestInsertDuringCommitIsNotLost(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		rs := randomRuleSet(t, 32, 100, 19)
		u, err := BuildUpdatable(rs, quickBucketed(), n, 0)
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu    sync.Mutex
			acked []lpm.Rule
		)
		const perCycle = 4 // inserts let in per commit, so the rule-set stays small
		var budget atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(20))
			for i := uint64(0); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if budget.Load() <= 0 {
					runtime.Gosched()
					continue
				}
				r := lpm.Rule{Prefix: keys.FromUint64(rng.Uint64() >> 32), Len: 32, Action: 1<<40 + i}
				if rs.Find(r.Prefix, 32) != lpm.NoMatch {
					continue
				}
				if err := u.Insert(r); err != nil {
					continue // a duplicate of an earlier draw
				}
				mu.Lock()
				acked = append(acked, r)
				mu.Unlock()
				budget.Add(-1)
				runtime.Gosched()
			}
		}()
		// 200 commits, and on more than one core as many more as it takes for
		// 200 inserts to have raced them: a commit of this rule-set is well
		// under a millisecond, so on a loaded box the inserter can miss whole
		// cycles. Each cycle commits one shard, round robin.
		raced := func() int {
			mu.Lock()
			defer mu.Unlock()
			return len(acked)
		}
		for cycle := 0; cycle < 200 || (runtime.GOMAXPROCS(0) > 1 && raced() < 200 && cycle < 20000); cycle++ {
			budget.Store(perCycle)
			if err := u.Commit(cycle % n); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			sofar := acked // its elements are never rewritten
			mu.Unlock()
			for _, r := range sofar {
				if a, ok := u.Lookup(r.Prefix); !ok || a != r.Action {
					t.Fatalf("cycle %d: acknowledged insert %v answers (%d,%v) after the swap", cycle, r, a, ok)
				}
			}
		}
		close(stop)
		wg.Wait()
		if runtime.GOMAXPROCS(0) > 1 && len(acked) < 200 {
			t.Errorf("only %d inserts raced 200 commits", len(acked))
		}
		commitAll(t, u)
		if err := u.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDeleteDuringCommitIsNotResurrected starts a writer at the one point of a
// commit where the rebuilt engine already holds the old rules and is not yet
// live (fault.SiteSwap), gives it a bounded time to land on the engine being
// replaced, and lets the swap go ahead. An update acknowledged before the swap
// and undone by it is a lost update; the writer has to wait for the commit and
// land on the engine it installs, and the oracle holds after both.
func TestDeleteDuringCommitIsNotResurrected(t *testing.T) {
	rs := randomRuleSet(t, 32, 200, 23)
	oracle := lpm.NewTrieMatcher(rs) // actions are unique: an action names its rule
	victim := slices.IndexFunc(rs.Rules, func(r lpm.Rule) bool { a, ok := oracle.Lookup(r.Prefix); return ok && a == r.Action })
	if victim < 0 {
		t.Fatal("no rule answers its own prefix")
	}
	r := rs.Rules[victim]
	for _, tc := range []struct {
		name  string
		write func(u *ShardedUpdatable) error
		after func() []lpm.Rule
	}{
		{"delete", func(u *ShardedUpdatable) error { return u.Delete(r.Prefix, r.Len) },
			func() []lpm.Rule { return slices.Delete(slices.Clone(rs.Rules), victim, victim+1) }},
		{"modify", func(u *ShardedUpdatable) error { return u.ModifyAction(r.Prefix, r.Len, 1<<41) },
			func() []lpm.Rule {
				out := slices.Clone(rs.Rules)
				out[victim].Action = 1 << 41
				return out
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forShardCounts(t, func(t *testing.T, n int) {
				var u *ShardedUpdatable
				wrote := make(chan error, 1)
				cfg := quickBucketed()
				cfg.Fault = func(site fault.Site) error {
					if site == fault.SiteSwap {
						go func() { wrote <- tc.write(u) }()
						select {
						case err := <-wrote: // landed beside the rebuild
							wrote <- err
						case <-time.After(50 * time.Millisecond): // waiting for the commit
						}
					}
					return nil
				}
				var err error
				if u, err = BuildUpdatable(rs, cfg, n, 0); err != nil {
					t.Fatal(err)
				}
				if err := u.Commit(u.ShardOf(r.Prefix)); err != nil {
					t.Fatal(err)
				}
				select {
				case err := <-wrote:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("the writer never returned")
				}
				want, err := lpm.NewRuleSet(32, tc.after())
				if err != nil {
					t.Fatal(err)
				}
				wa, wok := lpm.NewTrieMatcher(want).Lookup(r.Prefix)
				if a, ok := u.Lookup(r.Prefix); ok != wok || a != wa {
					t.Fatalf("%s of %v acknowledged during a commit: key answers (%d,%v) after it, the oracle says (%d,%v)", tc.name, r, a, ok, wa, wok)
				}
				if err := u.Verify(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestRebuiltInsertIsNeverForgotten: a rule whose Insert returned before a
// read began must be in that read's answer, whichever side of a concurrent
// rebuild the read lands on. On SRAM-only shards every insert is retrained
// in; the writer cycles insert → commit → delete and stamps a generation
// around the span in which the rule is installed (odd); a reader whose Lookup
// began and ended inside one odd generation and missed has loaded an engine
// the insert's swap had already replaced. One core cannot produce the
// interleaving — `make race-cores` runs this at -cpu 1,2,4.
func TestRebuiltInsertIsNeverForgotten(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		const cycles = 400
		rs := randomRuleSet(t, 16, 24, 77)
		probe := lpm.Rule{Prefix: keys.FromUint64(0xBEEF), Len: 16, Action: 4242}
		if rs.Find(probe.Prefix, probe.Len) != lpm.NoMatch {
			t.Fatal("probe rule collides with the base rule-set")
		}
		u, err := BuildUpdatable(rs, quickSRAMOnly(), n, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := u.ShardOf(probe.Prefix)

		var gen, forgot, reads atomic.Int64
		done := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					g := gen.Load()
					a, ok := u.Lookup(probe.Prefix)
					if g&1 == 1 && gen.Load() == g && (!ok || a != probe.Action) {
						forgot.Add(1)
					}
					reads.Add(1)
				}
			}()
		}
		for c := 0; c < cycles; c++ {
			if err := u.Insert(probe); err != nil {
				t.Fatal(err)
			}
			gen.Add(1) // odd: installed from here on
			if err := u.Commit(s); err != nil {
				t.Fatal(err)
			}
			gen.Add(1) // even: the delete below may already be visible
			if err := u.Delete(probe.Prefix, probe.Len); err != nil {
				t.Fatal(err)
			}
		}
		close(done)
		wg.Wait()
		if n := forgot.Load(); n != 0 {
			t.Fatalf("%d of %d reads, over %d insert→commit→delete cycles, missed a rule inserted before they began", n, reads.Load(), cycles)
		}
	})
}
