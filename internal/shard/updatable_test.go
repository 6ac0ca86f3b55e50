// Update-path behaviours the every-key sweep (planetest.TestSweepEveryKey)
// does not reach: a duplicate insert, and an action table grown to its limit.
// Each is checked on every key of a 2^10 domain.
package shard

import (
	"fmt"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// smallUpdatable builds n shards over random 10-bit rules, none of them a /1,
// so a /1 is free to insert.
func smallUpdatable(t *testing.T, cfg core.Config, seed int64, n int) (*ShardedUpdatable, *lpm.RuleSet) {
	t.Helper()
	rs := withoutShortRules(t, randomRuleSet(t, 10, 50, seed), 2)
	u, err := BuildUpdatable(rs, cfg, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return u, rs
}

// oracleOnEveryKey fails t unless u answers every key of its domain as the
// trie over rules does.
func oracleOnEveryKey(t *testing.T, u *ShardedUpdatable, rules []lpm.Rule) {
	t.Helper()
	rs, err := lpm.NewRuleSet(u.Width(), rules)
	if err != nil {
		t.Fatal(err)
	}
	oracle := lpm.NewTrieMatcher(rs)
	for i := uint64(0); i < 1<<u.Width(); i++ {
		k := keys.FromUint64(i)
		a, ok := u.Lookup(k)
		if wa, wok := oracle.Lookup(k); a != wa || ok != wok {
			t.Fatalf("key %#x: (%d,%v), the trie (%d,%v)", i, a, ok, wa, wok)
		}
	}
}

// TestInsertRejectsDuplicates: an insert of a rule already installed — built,
// or inserted since, absorbed into a spill record (K = 8) or retrained in
// (SRAM-only) — fails in every shard it covers and changes no answer. The
// inserted /1 is replicated into two of four shards.
func TestInsertRejectsDuplicates(t *testing.T) {
	for _, cfg := range []core.Config{quickBucketed(), quickSRAMOnly()} {
		t.Run(fmt.Sprintf("K=%d", max(cfg.BucketSize, 1)), func(t *testing.T) {
			forShardCounts(t, func(t *testing.T, n int) {
				u, rs := smallUpdatable(t, cfg, 32, n)
				fresh := []lpm.Rule{freeProbeRule(t, rs, 10), {Prefix: keys.FromUint64(1 << 9), Len: 1, Action: 7}}
				for _, r := range fresh {
					if err := u.Insert(r); err != nil {
						t.Fatal(err)
					}
				}
				for _, r := range append([]lpm.Rule{rs.Rules[0]}, fresh...) {
					r.Action++
					if err := u.Insert(r); err == nil {
						t.Errorf("a duplicate of installed %v/%d was accepted", r.Prefix, r.Len)
					}
				}
				oracleOnEveryKey(t, u, append(append([]lpm.Rule(nil), rs.Rules...), fresh...))
			})
		})
	}
}

// TestShardedModifyActionKeepsTheTableBounded: each ModifyAction with a
// fresh value adds an entry to the action table of every shard the rule is
// in. Past the table's limit the write retrains the shard (core.Engine.Compact)
// instead of growing it further, and the lookup function stays the oracle's.
func TestShardedModifyActionKeepsTheTableBounded(t *testing.T) {
	u, rs := smallUpdatable(t, quickSRAMOnly(), 34, 2)
	target := rs.Rules[len(rs.Rules)/3]
	s := u.ShardOf(target.Prefix)
	before := u.Engine(s)
	const fresh = 2000 // past the limit of a 50-rule shard: 2·(≤ 51) + 1 024
	var last uint64
	for n := range fresh {
		last = 1<<40 | uint64(n)
		if err := u.ModifyAction(target.Prefix, target.Len, last); err != nil {
			t.Fatal(err)
		}
	}
	if u.Engine(s) == before {
		t.Fatalf("shard %d kept its engine through %d fresh action values", s, fresh)
	}
	if err := u.Verify(); err != nil {
		t.Fatal(err)
	}
	modified := append([]lpm.Rule(nil), rs.Rules...)
	for i := range modified {
		if modified[i].Prefix == target.Prefix && modified[i].Len == target.Len {
			modified[i].Action = last
		}
	}
	oracleOnEveryKey(t, u, modified)
}
