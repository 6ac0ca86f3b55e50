// Metamorphic update tests for ShardedUpdatable: the §6.5 identities must
// survive sharding — including for short rules that are replicated into
// several shards. Each identity is checked by a full-keyspace sweep against
// the trie oracle on a 2^10 domain.
package shard

import (
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

func buildSweepUpdatable(t *testing.T, seed int64) (*ShardedUpdatable, *lpm.RuleSet) {
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
	u, err := BuildUpdatable(rs, quickSRAMOnly(), 4, 0)
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

// TestShardedInsertThenDeleteIsIdentity covers both a long rule (one shard)
// and a /1 rule (replicated into two of the four shards), on the delta path
// and the committed path.
func TestShardedInsertThenDeleteIsIdentity(t *testing.T) {
	u, rs := buildSweepUpdatable(t, 31)
	before := sweepFn(sweepWidth, u.Lookup)
	long := freeRule(t, rs, 6, 5001)
	short := freeRule(t, rs, 1, 5002)

	// Delta path.
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
	diffSweeps(t, "delta insert+delete", sweepFn(sweepWidth, u.Lookup), before)

	// Committed path: the replicated short rule exercises per-shard
	// tombstones in two shards at once.
	for _, r := range []lpm.Rule{long, short} {
		if err := u.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := u.CommitAll(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []lpm.Rule{long, short} {
		if err := u.Delete(r.Prefix, r.Len); err != nil {
			t.Fatal(err)
		}
	}
	diffSweeps(t, "committed insert+delete", sweepFn(sweepWidth, u.Lookup), before)
}

// TestShardedModifyActionWithoutRetrain checks the modification is visible
// on every key the rule owns — across all replicas — while no shard engine
// is replaced.
func TestShardedModifyActionWithoutRetrain(t *testing.T) {
	u, rs := buildSweepUpdatable(t, 32)
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

	modified := rs.Clone()
	for i := range modified.Rules {
		if modified.Rules[i].Prefix == target.Prefix && modified.Rules[i].Len == target.Len {
			modified.Rules[i].Action = newAction
		}
	}
	oracle := lpm.NewTrieMatcher(modified)
	diffSweeps(t, "sharded modify-action", sweepFn(sweepWidth, u.Lookup), sweepFn(sweepWidth, oracle.Lookup))
}

// TestShardedCommitEqualsFreshBuild: after inserting rules (including a
// replicated one) and committing, the sharded engine must equal a fresh
// sharded Build — and the oracle — over the merged rule-set.
func TestShardedCommitEqualsFreshBuild(t *testing.T) {
	u, rs := buildSweepUpdatable(t, 33)
	// One rule per length: /1 replicates across shards 0–1, /4 and /8 land
	// in single shards. freeRule scans for prefixes absent from the set.
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
	if err := u.CommitAll(); err != nil {
		t.Fatal(err)
	}
	if got := u.PendingInserts(); got != 0 {
		t.Fatalf("pending after CommitAll: %d", got)
	}
	mergedSet, err := lpm.NewRuleSet(sweepWidth, merged)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildUpdatable(mergedSet, quickSRAMOnly(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want := sweepFn(sweepWidth, fresh.Lookup)
	diffSweeps(t, "sharded commit vs fresh build", sweepFn(sweepWidth, u.Lookup), want)
	oracle := lpm.NewTrieMatcher(mergedSet)
	diffSweeps(t, "fresh sharded build vs oracle", want, sweepFn(sweepWidth, oracle.Lookup))
	if err := u.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedUpdatableBatchSeesDelta: a pending (uncommitted) insertion is
// visible through LookupBatch, shard-consistently.
func TestShardedUpdatableBatchSeesDelta(t *testing.T) {
	u, rs := buildSweepUpdatable(t, 34)
	r := freeRule(t, rs, 10, 4242)
	if err := u.Insert(r); err != nil {
		t.Fatal(err)
	}
	res := u.LookupBatch([]keys.Value{r.Prefix})
	if !res[0].Matched || res[0].Action != 4242 {
		t.Fatalf("pending rule invisible to LookupBatch: %+v", res[0])
	}
}
