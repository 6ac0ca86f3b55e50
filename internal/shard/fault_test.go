// Failure tests for the update path (DESIGN.md §11): a failed rebuild must
// leave every shard as it was.
package shard

import (
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/telemetry"
)

// buildFaulty builds an updatable engine of n shards over cfg whose engines
// carry a fault injector.
func buildFaulty(t *testing.T, cfg core.Config, n int) (*ShardedUpdatable, *lpm.RuleSet, *fault.Injector) {
	t.Helper()
	rs := randomRuleSet(t, 24, 80, 91)
	in := fault.NewInjector(1)
	cfg.Fault = in.Hook()
	u, err := BuildUpdatable(rs, cfg, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return u, rs, in
}

// freeRule24 returns a /24 rule absent from rs.
func freeRule24(t *testing.T, rs *lpm.RuleSet, action uint64) lpm.Rule {
	t.Helper()
	return freeRules24(t, rs, 1, action)[0]
}

// freeRules24 returns n distinct /24 rules absent from rs, actions from
// action up.
func freeRules24(t *testing.T, rs *lpm.RuleSet, n int, action uint64) []lpm.Rule {
	t.Helper()
	var out []lpm.Rule
	for p := uint64(0); p < 1<<16 && len(out) < n; p++ {
		prefix := keys.FromUint64(p * 2654435761 % (1 << 24))
		if rs.Find(prefix, 24) == lpm.NoMatch {
			out = append(out, lpm.Rule{Prefix: prefix, Len: 24, Action: action + uint64(len(out))})
		}
	}
	if len(out) < n {
		t.Fatal("no free rule")
	}
	return out
}

// TestCommitFailureLeavesEngineIntact: an injected retrain failure must abort
// the commit with the shard's live engine unchanged and the inserted rule
// still answered; the next (successful) commit carries the rule into the
// rebuilt engine exactly once.
func TestCommitFailureLeavesEngineIntact(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		u, rs, in := buildFaulty(t, quickBucketed(), n)
		r := freeRule24(t, rs, 4242)
		if err := u.Insert(r); err != nil {
			t.Fatal(err)
		}
		s := u.ShardOf(r.Prefix)
		before := u.Engine(s)

		in.FailNext(fault.SiteRetrain, 1)
		if err := u.Commit(s); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("commit under injected retrain failure: err = %v", err)
		}
		if u.Engine(s) != before {
			t.Fatal("failed commit swapped the engine")
		}
		if got, ok := u.Lookup(r.Prefix); !ok || got != r.Action {
			t.Fatalf("rule lost after failed commit: (%d,%v)", got, ok)
		}

		// Injector exhausted: the retry succeeds and carries the rule once.
		if err := u.Commit(s); err != nil {
			t.Fatalf("retry commit: %v", err)
		}
		if u.Engine(s) == before || u.Engine(s).SpilledBuckets() != 0 {
			t.Fatalf("retry commit did not install a dense engine: %d spilled buckets", u.Engine(s).SpilledBuckets())
		}
		if got, ok := u.Engine(s).Lookup(r.Prefix); !ok || got != r.Action {
			t.Fatalf("committed rule missing from engine: (%d,%v)", got, ok)
		}
	})
}

// TestSwapFailureDiscardsNewEngine: a failure injected between retrain and
// swap aborts the commit without tearing — the old engine stays live.
func TestSwapFailureDiscardsNewEngine(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		u, rs, in := buildFaulty(t, quickSRAMOnly(), n)
		r := freeRule24(t, rs, 777)
		if err := u.Insert(r); err != nil {
			t.Fatal(err)
		}
		s := u.ShardOf(r.Prefix)
		before := u.Engine(s)
		in.FailNext(fault.SiteSwap, 1)
		if err := u.Commit(s); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("commit under injected swap failure: err = %v", err)
		}
		if u.Engine(s) != before {
			t.Fatal("swap failure tore the commit")
		}
		if err := u.Commit(s); err != nil {
			t.Fatal(err)
		}
		if got, ok := u.Lookup(r.Prefix); u.Engine(s) == before || !ok || got != r.Action {
			t.Fatalf("retry commit: rule answers (%d,%v)", got, ok)
		}
	})
}

// TestFailedRebuildRollsBack: an insert the engine refuses (fault.SiteAbsorb)
// whose rebuild then fails — at the retrain, and separately at the swap —
// returns the injected error and leaves everything as it was: the same engine
// pointers, the same spilled buckets, and the same answer for every key of a
// trace that covers the rule. With the injected failure spent, the same
// insert — still refused — is retrained in.
func TestFailedRebuildRollsBack(t *testing.T) {
	for _, site := range []fault.Site{fault.SiteRetrain, fault.SiteSwap} {
		t.Run(string(site), func(t *testing.T) {
			forShardCounts(t, func(t *testing.T, n int) {
				u, rs, in := buildFaulty(t, quickBucketed(), n)
				free := freeRules24(t, rs, 5, 4242)
				// Absorbed inserts first, so there are spill records to keep.
				for _, a := range free[1:] {
					if err := u.Insert(a); err != nil {
						t.Fatal(err)
					}
				}
				engines := func() (es []*core.Engine, spilled int) {
					for i := 0; i < u.Shards(); i++ {
						es = append(es, u.Engine(i))
						spilled += u.Engine(i).SpilledBuckets()
					}
					return es, spilled
				}
				before, spilled := engines()
				if spilled == 0 {
					t.Fatal("absorbed inserts left no spill record")
				}
				r := free[0]
				rng := rand.New(rand.NewSource(92))
				trace := []keys.Value{r.Prefix, r.Prefix.AddUint64(255), r.Prefix.AddUint64(256)}
				for len(trace) < 2000 {
					trace = append(trace, keys.FromUint64(uint64(rng.Intn(1<<24))))
				}
				want := u.LookupBatch(trace)

				in.FailProb(fault.SiteAbsorb, 1)
				in.FailNext(site, 1)
				if err := u.Insert(r); !errors.Is(err, fault.ErrInjected) {
					t.Fatalf("refused insert under an injected %s failure: err = %v", site, err)
				}
				after, spilledAfter := engines()
				if !slices.Equal(after, before) {
					t.Fatal("a failed rebuild installed an engine")
				}
				if spilledAfter != spilled {
					t.Fatalf("spilled buckets %d after a failed rebuild, want %d", spilledAfter, spilled)
				}
				for i, k := range trace {
					if a, ok := u.Lookup(k); a != want[i].Action || ok != want[i].Matched {
						t.Fatalf("key %v answers (%d,%v) after a failed rebuild, %+v before", k, a, ok, want[i])
					}
				}

				if err := u.Insert(r); err != nil { // still refused, now rebuilt
					t.Fatalf("insert with the %s fault spent: %v", site, err)
				}
				s := u.ShardOf(r.Prefix)
				if got, ok := u.Lookup(r.Prefix); u.Engine(s) == before[s] || !ok || got != r.Action {
					t.Fatalf("rebuilt-in rule answers (%d,%v)", got, ok)
				}
			})
		})
	}
}

// TestRebuildIsTimedAndBooked: a refused insert's rebuild runs on the one
// rebuild path a commit's does, so the daemon — which inserts but never
// commits — books it: timed on neurolpm_shard_rebuild_ms, and counted on
// neurolpm_shard_commit_errors_total when it fails.
func TestRebuildIsTimedAndBooked(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		u, rs, in := buildFaulty(t, quickBucketed(), n)
		rebuildMs := telemetry.Default.Histogram("neurolpm_shard_rebuild_ms", "")
		free := freeRules24(t, rs, 2, 4242)
		in.FailProb(fault.SiteAbsorb, 1)

		timed, errs := rebuildMs.Snapshot().Total, scrape()["neurolpm_shard_commit_errors_total"]
		if err := u.Insert(free[0]); err != nil {
			t.Fatal(err)
		}
		if got := rebuildMs.Snapshot().Total - timed; got != 1 {
			t.Errorf("a refused insert raised the rebuild histogram's count by %d, want 1", got)
		}
		if got := scrape()["neurolpm_shard_commit_errors_total"] - errs; got != 0 {
			t.Errorf("a rebuild that succeeded raised the error counter by %g", got)
		}

		in.FailNext(fault.SiteRetrain, 1)
		if err := u.Insert(free[1]); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("refused insert under an injected retrain failure: err = %v", err)
		}
		if got := scrape()["neurolpm_shard_commit_errors_total"] - errs; got != 1 {
			t.Errorf("a failed rebuild raised the error counter by %g, want 1", got)
		}
	})
}

// TestReplicatedInsertRollsBack: a rule shorter than the shard prefix is
// inserted into shards lo…hi in order, each SRAM-only shard retraining it in.
// When the rebuild of the last shard fails — at the retrain, and separately at
// the swap — Insert returns the injected error and shards lo…hi−1, which had
// already taken the rule, no longer answer it: every key of the rule's span
// answers what it did before the call, and the last shard's engine is the one
// it had.
func TestReplicatedInsertRollsBack(t *testing.T) {
	const width = 16
	for _, site := range []fault.Site{fault.SiteRetrain, fault.SiteSwap} {
		t.Run(string(site), func(t *testing.T) {
			rs := randomRuleSet(t, width, 60, 57)
			var armed atomic.Bool
			var fires, failAt atomic.Int64
			cfg := quickSRAMOnly()
			cfg.Fault = func(s fault.Site) error {
				if s == site && armed.Load() && fires.Add(1) == failAt.Load() {
					return fault.ErrInjected
				}
				return nil
			}
			u, err := BuildUpdatable(rs, cfg, 4, 0)
			if err != nil {
				t.Fatal(err)
			}
			var r lpm.Rule
			for _, c := range []lpm.Rule{{Len: 0}, {Len: 1}, {Prefix: keys.FromUint64(1 << (width - 1)), Len: 1}} {
				if rs.Find(c.Prefix, c.Len) == lpm.NoMatch {
					r = lpm.Rule{Prefix: c.Prefix, Len: c.Len, Action: 1 << 30}
					break
				}
			}
			if r.Action == 0 {
				t.Fatal("every rule shorter than the shard prefix is taken")
			}
			lo, hi := shardSpan(width, u.shardBits, r)
			if hi <= lo {
				t.Fatalf("rule %v covers shards %d…%d, want several", r, lo, hi)
			}
			span := make([]keys.Value, 0, 256)
			for k := r.Low(width); len(span) < cap(span); k = k.AddUint64(1 << (width - r.Len - 8)) {
				span = append(span, k)
			}
			before := make([]Result, len(span))
			for i, k := range span {
				before[i].Action, before[i].Matched = u.Lookup(k)
			}
			last := u.Engine(hi)

			armed.Store(true)
			failAt.Store(int64(hi - lo + 1))
			if err := u.Insert(r); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("insert with shard %d's %s failing: err = %v", hi, site, err)
			}
			armed.Store(false)
			if u.Engine(hi) != last {
				t.Fatalf("shard %d installed an engine its failed rebuild built", hi)
			}
			for i, k := range span {
				if a, ok := u.Lookup(k); a != before[i].Action || ok != before[i].Matched {
					t.Fatalf("key %v (shard %d) answers (%d,%v) after the rolled-back insert, (%d,%v) before",
						k, u.ShardOf(k), a, ok, before[i].Action, before[i].Matched)
				}
			}
			if err := u.Insert(r); err != nil {
				t.Fatalf("insert once the fault is disarmed: %v", err)
			}
			merged, err := lpm.NewRuleSet(width, append(append([]lpm.Rule(nil), rs.Rules...), r))
			if err != nil {
				t.Fatal(err)
			}
			oracle := lpm.NewTrieMatcher(merged)
			for _, k := range span {
				want, wantOK := oracle.Lookup(k)
				if a, ok := u.Lookup(k); a != want || ok != wantOK {
					t.Fatalf("key %v answers (%d,%v) once the rule is in, the oracle says (%d,%v)", k, a, ok, want, wantOK)
				}
			}
		})
	}
}
