// Failure tests for the update path (DESIGN.md §11): a failed rebuild must
// leave every shard as it was.
package shard

import (
	"errors"
	"slices"
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

// TestFailedRebuildKeepsTheInsert: inserts land in place whatever a rebuild
// does. Single-key rules fill one bucket of one shard until one passes 64
// ranges and overgrows the shard's engine; its Compact then fails — at the
// retrain, and separately at the swap. That insert still returns nil and
// answers, no engine is swapped, and neurolpm_shard_commit_errors_total rises
// by one. With the fault spent, the next write swaps in a rebuilt engine with
// no spill record, which answers every rule.
func TestFailedRebuildKeepsTheInsert(t *testing.T) {
	for _, site := range []fault.Site{fault.SiteRetrain, fault.SiteSwap} {
		t.Run(string(site), func(t *testing.T) {
			forShardCounts(t, func(t *testing.T, n int) {
				u, rs, in := buildFaulty(t, quickBucketed(), n)
				engines := func() (es []*core.Engine) {
					for i := 0; i < u.Shards(); i++ {
						es = append(es, u.Engine(i))
					}
					return es
				}
				before := engines()
				errs := scrape()["neurolpm_shard_commit_errors_total"]
				in.FailNext(site, 1)
				site0 := freeRule24(t, rs, 0).Prefix
				s := u.ShardOf(site0)
				var added []lpm.Rule
				for i := 0; scrape()["neurolpm_shard_commit_errors_total"] == errs; i++ {
					if i == 200 {
						t.Fatal("200 single-key inserts overgrew no engine")
					}
					r := lpm.Rule{Prefix: site0.AddUint64(uint64(2 * i)), Len: 24, Action: uint64(5000 + i)}
					if rs.Find(r.Prefix, r.Len) != lpm.NoMatch || u.ShardOf(r.Prefix) != s {
						continue
					}
					if err := u.Insert(r); err != nil {
						t.Fatalf("insert %d with the %s fault armed: %v", len(added), site, err)
					}
					added = append(added, r)
				}
				if got := scrape()["neurolpm_shard_commit_errors_total"] - errs; got != 1 {
					t.Fatalf("the failed rebuild raised the error counter by %g, want 1", got)
				}
				if !slices.Equal(engines(), before) {
					t.Fatal("an engine was swapped while its rebuild failed")
				}
				if u.Engine(s).SpilledBuckets() == 0 {
					t.Fatal("the inserts left no spill record")
				}
				for _, r := range added {
					if got, ok := u.Lookup(r.Prefix); !ok || got != r.Action {
						t.Fatalf("rule %v answers (%d,%v) after a failed rebuild", r, got, ok)
					}
				}

				// The next write's Compact rebuilds the overgrown engine.
				last := added[len(added)-1]
				if err := u.ModifyAction(last.Prefix, last.Len, 7777); err != nil {
					t.Fatal(err)
				}
				if u.Engine(s) == before[s] || u.Engine(s).SpilledBuckets() != 0 {
					t.Fatalf("the write after the fault kept the engine or %d spilled buckets", u.Engine(s).SpilledBuckets())
				}
				if err := u.Verify(); err != nil {
					t.Fatal(err)
				}
				for i, r := range added[:len(added)-1] {
					if got, ok := u.Lookup(r.Prefix); !ok || got != r.Action {
						t.Fatalf("rule %d (%v) answers (%d,%v) in the rebuilt engine", i, r, got, ok)
					}
				}
				if got, ok := u.Lookup(last.Prefix); !ok || got != 7777 {
					t.Fatalf("modified rule answers (%d,%v) in the rebuilt engine", got, ok)
				}
			})
		})
	}
}

// TestRebuildIsTimedAndBooked: a Compact's rebuild runs on the one rebuild
// path a commit's does, so the daemon — which writes but never commits —
// books it: timed on neurolpm_shard_rebuild_ms, and counted on
// neurolpm_shard_commit_errors_total when it fails, while the insert that
// preceded it succeeds either way.
func TestRebuildIsTimedAndBooked(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		u, rs, in := buildFaulty(t, quickBucketed(), n)
		rebuildMs := telemetry.Default.Histogram("neurolpm_shard_rebuild_ms", "")
		free := freeRules24(t, rs, 2, 4242)

		timed, errs := rebuildMs.Snapshot().Total, scrape()["neurolpm_shard_commit_errors_total"]
		in.FailNext(fault.SiteCompact, 1)
		if err := u.Insert(free[0]); err != nil {
			t.Fatal(err)
		}
		if got := rebuildMs.Snapshot().Total - timed; got != 1 {
			t.Errorf("a forced Compact raised the rebuild histogram's count by %d, want 1", got)
		}
		if got := scrape()["neurolpm_shard_commit_errors_total"] - errs; got != 0 {
			t.Errorf("a rebuild that succeeded raised the error counter by %g", got)
		}

		in.FailNext(fault.SiteCompact, 1)
		in.FailNext(fault.SiteRetrain, 1)
		if err := u.Insert(free[1]); err != nil {
			t.Fatalf("insert whose rebuild failed: %v", err)
		}
		if got := scrape()["neurolpm_shard_commit_errors_total"] - errs; got != 1 {
			t.Errorf("a failed rebuild raised the error counter by %g, want 1", got)
		}
		if got, ok := u.Lookup(free[1].Prefix); !ok || got != free[1].Action {
			t.Errorf("insert whose rebuild failed answers (%d,%v)", got, ok)
		}
	})
}

// TestReplicatedInsertOutlivesFailedRebuilds: a rule shorter than the shard
// prefix lands in every SRAM-only shard it covers, and every Compact is forced
// to rebuild (fault site compact). While every rebuild fails — at the
// retrain, and separately at the swap — Insert returns nil, every key of the
// rule's span answers what the oracle over the rules plus it says, no engine
// is swapped, and each covered shard books one failure. With the fault
// disarmed, the next write to the rule rebuilds every covered shard.
func TestReplicatedInsertOutlivesFailedRebuilds(t *testing.T) {
	const width = 16
	for _, site := range []fault.Site{fault.SiteRetrain, fault.SiteSwap} {
		t.Run(string(site), func(t *testing.T) {
			rs := randomRuleSet(t, width, 60, 57)
			in := fault.NewInjector(1)
			in.FailProb(fault.SiteCompact, 1)
			cfg := quickSRAMOnly()
			cfg.Fault = in.Hook()
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
			check := func(when string, r lpm.Rule) {
				t.Helper()
				set, err := lpm.NewRuleSet(width, append(slices.Clone(rs.Rules), r))
				if err != nil {
					t.Fatal(err)
				}
				oracle := lpm.NewTrieMatcher(set)
				for _, k := range span {
					want, wantOK := oracle.Lookup(k)
					if a, ok := u.Lookup(k); a != want || ok != wantOK {
						t.Fatalf("%s: key %v (shard %d) answers (%d,%v), the oracle says (%d,%v)",
							when, k, u.ShardOf(k), a, ok, want, wantOK)
					}
				}
			}
			var before []*core.Engine
			for s := lo; s <= hi; s++ {
				before = append(before, u.Engine(s))
			}

			errs := scrape()["neurolpm_shard_commit_errors_total"]
			in.FailProb(site, 1)
			if err := u.Insert(r); err != nil {
				t.Fatalf("insert with every %s failing: %v", site, err)
			}
			in.Clear(site)
			if got, want := scrape()["neurolpm_shard_commit_errors_total"]-errs, float64(hi-lo+1); got != want {
				t.Fatalf("failed rebuilds raised the error counter by %g, want %g", got, want)
			}
			for s := lo; s <= hi; s++ {
				if u.Engine(s) != before[s-lo] {
					t.Fatalf("shard %d swapped in an engine its failed rebuild built", s)
				}
			}
			check("after the failed rebuilds", r)

			r.Action++
			if err := u.ModifyAction(r.Prefix, r.Len, r.Action); err != nil {
				t.Fatal(err)
			}
			for s := lo; s <= hi; s++ {
				if e := u.Engine(s); e == before[s-lo] || e.SpilledBuckets() != 0 {
					t.Fatalf("shard %d: the write after the fault kept the engine or %d spilled buckets", s, e.SpilledBuckets())
				}
			}
			check("once rebuilt", r)
		})
	}
}
