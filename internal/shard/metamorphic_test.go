// Metamorphic update tests: algebraic identities over the §6.5 update paths,
// at one shard and at four — where they must survive sharding, short rules
// replicated into several shards included. Each identity is checked by a
// full-keyspace sweep on a 2^10 domain, so that every range boundary and
// wildcard interaction is exercised, not a sample.
package shard

import (
	"slices"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

const sweepWidth = 10

type sweepResult struct {
	Action  uint64
	Matched bool
}

func sweepFn(width int, look func(keys.Value) (uint64, bool)) []sweepResult {
	out := make([]sweepResult, 1<<width)
	for i := range out {
		out[i].Action, out[i].Matched = look(keys.FromUint64(uint64(i)))
	}
	return out
}

func diffSweeps(t *testing.T, label string, got, want []sweepResult) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: key %#x: got (%d,%v), want (%d,%v)",
				label, i, got[i].Action, got[i].Matched, want[i].Action, want[i].Matched)
		}
	}
}

// freeRule returns a length-bit rule whose (prefix,len) is absent from rs.
func freeRule(t *testing.T, rs *lpm.RuleSet, length int, action uint64) lpm.Rule {
	t.Helper()
	for p := 0; p < 1<<length; p++ {
		prefix := keys.FromUint64(uint64(p)).Shl(uint(sweepWidth - length))
		if rs.Find(prefix, length) == lpm.NoMatch {
			return lpm.Rule{Prefix: prefix, Len: length, Action: action}
		}
	}
	t.Fatalf("no free /%d rule", length)
	return lpm.Rule{}
}

func buildSweepUpdatable(t *testing.T, seed int64, n int) (*ShardedUpdatable, *lpm.RuleSet) {
	t.Helper()
	// Keep generated rules at /3 and longer so the tests always have free
	// short prefixes to insert (the replicated-rule cases need a free /1).
	var rules []lpm.Rule
	for _, r := range randomRuleSet(t, sweepWidth, 50, seed).Rules {
		if r.Len >= 3 {
			rules = append(rules, r)
		}
	}
	rs, err := lpm.NewRuleSet(sweepWidth, rules)
	if err != nil {
		t.Fatal(err)
	}
	u, err := BuildUpdatable(rs, quickSRAMOnly(), n, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := u.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return u, rs
}

// TestShardedInsertThenDeleteIsIdentity: inserting a rule and deleting it
// again leaves the lookup function unchanged — right after the SRAM-only
// shards retrained it in, and after a commit rebuilt them once more
// (tombstone path either way). It covers a long rule (one shard) and a /1
// (replicated into two of four shards).
func TestShardedInsertThenDeleteIsIdentity(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		u, rs := buildSweepUpdatable(t, 31, n)
		before := sweepFn(sweepWidth, u.Lookup)
		long := freeRule(t, rs, 6, 5001)
		short := freeRule(t, rs, 1, 5002)

		// Rebuild path.
		for _, r := range []lpm.Rule{long, short} {
			if err := u.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range []lpm.Rule{long, short} {
			if err := u.Delete(r.Prefix, r.Len); err != nil {
				t.Fatal(err)
			}
		}
		diffSweeps(t, "rebuilt insert+delete", sweepFn(sweepWidth, u.Lookup), before)

		// Committed path: the replicated short rule exercises per-shard
		// tombstones in two shards at once.
		for _, r := range []lpm.Rule{long, short} {
			if err := u.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		commitAll(t, u)
		for _, r := range []lpm.Rule{long, short} {
			if err := u.Delete(r.Prefix, r.Len); err != nil {
				t.Fatal(err)
			}
		}
		diffSweeps(t, "committed insert+delete", sweepFn(sweepWidth, u.Lookup), before)
	})
}

// TestShardedModifyActionWithoutRetrain: ModifyAction changes the lookup
// function exactly as the oracle over the modified rule-set says — on every
// key the rule owns, across all replicas — while no shard engine (hence no
// trained model) is replaced.
func TestShardedModifyActionWithoutRetrain(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		u, rs := buildSweepUpdatable(t, 32, n)
		target := rs.Rules[len(rs.Rules)/3]
		const newAction = 888888

		enginesBefore := make([]any, u.Shards())
		for i := range enginesBefore {
			enginesBefore[i] = u.Engine(i)
		}
		if err := u.ModifyAction(target.Prefix, target.Len, newAction); err != nil {
			t.Fatal(err)
		}
		for i := range enginesBefore {
			if u.Engine(i) != enginesBefore[i] {
				t.Fatalf("shard %d engine replaced by ModifyAction (retrained)", i)
			}
		}

		modified := &lpm.RuleSet{Width: rs.Width, Rules: slices.Clone(rs.Rules)}
		for i := range modified.Rules {
			if modified.Rules[i].Prefix == target.Prefix && modified.Rules[i].Len == target.Len {
				modified.Rules[i].Action = newAction
			}
		}
		oracle := lpm.NewTrieMatcher(modified)
		diffSweeps(t, "modify-action", sweepFn(sweepWidth, u.Lookup), sweepFn(sweepWidth, oracle.Lookup))
	})
}

// TestShardedModifyActionKeepsTheTableBounded: each ModifyAction with a
// fresh value adds an entry to the action table of every shard the rule is
// in. Past the table's limit the write retrains the shard (core.Engine.Compact)
// instead of growing it further, and the lookup function stays the oracle's.
func TestShardedModifyActionKeepsTheTableBounded(t *testing.T) {
	u, rs := buildSweepUpdatable(t, 34, 2)
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
	modified := &lpm.RuleSet{Width: rs.Width, Rules: slices.Clone(rs.Rules)}
	for i := range modified.Rules {
		if modified.Rules[i].Prefix == target.Prefix && modified.Rules[i].Len == target.Len {
			modified.Rules[i].Action = last
		}
	}
	oracle := lpm.NewTrieMatcher(modified)
	diffSweeps(t, "modify-action", sweepFn(sweepWidth, u.Lookup), sweepFn(sweepWidth, oracle.Lookup))
}

// TestShardedCommitEqualsFreshBuild: after inserting rules (including a
// replicated one) and committing, the updatable engine must equal a fresh
// build of the same shard count — and the oracle — over the merged rule-set.
func TestShardedCommitEqualsFreshBuild(t *testing.T) {
	forShardCounts(t, func(t *testing.T, n int) {
		u, rs := buildSweepUpdatable(t, 33, n)
		// One rule per length: /1 replicates across shards 0–1 of four, /4
		// and /8 land in single shards. freeRule scans for prefixes absent
		// from the set.
		news := []lpm.Rule{
			freeRule(t, rs, 4, 7001),
			freeRule(t, rs, 1, 7002),
			freeRule(t, rs, 8, 7003),
		}
		merged := append([]lpm.Rule(nil), rs.Rules...)
		for _, r := range news {
			if err := u.Insert(r); err != nil {
				t.Fatal(err)
			}
			merged = append(merged, r)
		}
		commitAll(t, u)
		mergedSet, err := lpm.NewRuleSet(sweepWidth, merged)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := BuildUpdatable(mergedSet, quickSRAMOnly(), n, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := sweepFn(sweepWidth, fresh.Lookup)
		diffSweeps(t, "commit vs fresh build", sweepFn(sweepWidth, u.Lookup), want)
		oracle := lpm.NewTrieMatcher(mergedSet)
		diffSweeps(t, "fresh build vs oracle", want, sweepFn(sweepWidth, oracle.Lookup))
		if err := u.Verify(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedUpdatableBatchSeesRebuiltInsert: an insertion the SRAM-only
// shard retrained in is visible through LookupBatch once Insert returns.
func TestShardedUpdatableBatchSeesRebuiltInsert(t *testing.T) {
	u, rs := buildSweepUpdatable(t, 34, 4)
	r := freeRule(t, rs, 10, 4242)
	if err := u.Insert(r); err != nil {
		t.Fatal(err)
	}
	res := u.LookupBatch([]keys.Value{r.Prefix})
	if !res[0].Matched || res[0].Action != 4242 {
		t.Fatalf("rebuilt-in rule invisible to LookupBatch: %+v", res[0])
	}
}
