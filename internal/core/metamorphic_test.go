// Metamorphic update tests: algebraic identities over the §6.5 write policy
// (Insert, Delete and ModifyAction, each followed by Compact, and Rebuild) on
// one engine published through the test-local holder, each checked by a
// full-keyspace sweep on a small domain so that every range boundary and wildcard interaction is
// exercised, not a sample. shard's TestSharded… twins check the same
// identities through ShardedUpdatable's writer lock at one shard and at four.
package core

import (
	"slices"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// sweepWidth keeps full-keyspace sweeps cheap: 2^10 keys.
const sweepWidth = 10

// sweep evaluates look on every key of the sweepWidth-bit domain.
func sweep(look func(keys.Value) (uint64, bool)) []Result {
	out := make([]Result, 1<<sweepWidth)
	for i := range out {
		out[i].Action, out[i].Matched = look(keys.FromUint64(uint64(i)))
	}
	return out
}

// sweepUpdatable builds an SRAM-only engine over n random sweepWidth-bit
// rules and publishes it through the test-local holder.
func sweepUpdatable(t *testing.T, n int, seed int64) (*updatable, *lpm.RuleSet) {
	t.Helper()
	rs := randomRuleSet(t, sweepWidth, n, seed)
	eng, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	return newUpdatable(eng), rs
}

// Result mirrors one lookup's outcome for sweep comparison.
type Result struct {
	Action  uint64
	Matched bool
}

func diffSweeps(t *testing.T, label string, got, want []Result) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: key %#x: got (%d,%v), want (%d,%v)",
				label, i, got[i].Action, got[i].Matched, want[i].Action, want[i].Matched)
		}
	}
}

// freshRule returns a rule not present in rs.
func freshRule(rs *lpm.RuleSet) lpm.Rule {
	r := lpm.Rule{Prefix: keys.FromUint64(0b1010100000), Len: 7, Action: 9999}
	for rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
		r.Len--
		r.Prefix = r.Prefix.Shr(uint(sweepWidth - r.Len)).Shl(uint(sweepWidth - r.Len))
	}
	return r
}

// TestMetamorphicInsertThenDeleteIsIdentity: inserting a rule and deleting
// it again must leave the observable lookup function unchanged — both right
// after the insert retrained it into the SRAM-only engine and after a commit
// rebuilt the engine once more (tombstone path either way).
func TestMetamorphicInsertThenDeleteIsIdentity(t *testing.T) {
	u, rs := sweepUpdatable(t, 40, 21)
	before := sweep(u.Lookup)
	r := freshRule(rs)

	// Rebuild path: the SRAM-only spill overgrows the engine, Compact
	// retrains it, then delete.
	if err := u.Insert(r); err != nil {
		t.Fatal(err)
	}
	if err := u.Delete(r.Prefix, r.Len); err != nil {
		t.Fatal(err)
	}
	diffSweeps(t, "rebuilt insert+delete", sweep(u.Lookup), before)

	// Committed path: insert, commit (retrain), then tombstone-delete.
	if err := u.Insert(r); err != nil {
		t.Fatal(err)
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := u.Delete(r.Prefix, r.Len); err != nil {
		t.Fatal(err)
	}
	diffSweeps(t, "committed insert+delete", sweep(u.Lookup), before)
}

// TestMetamorphicModifyActionWithoutRetrain: ModifyAction must change the
// lookup function exactly as the oracle over the modified rule-set says,
// while leaving the engine instance (hence the trained model) untouched.
func TestMetamorphicModifyActionWithoutRetrain(t *testing.T) {
	u, rs := sweepUpdatable(t, 40, 22)
	target := rs.Rules[len(rs.Rules)/2]
	const newAction = 777777

	engineBefore := u.Engine()
	if err := u.ModifyAction(target.Prefix, target.Len, newAction); err != nil {
		t.Fatal(err)
	}
	if u.Engine() != engineBefore {
		t.Fatal("ModifyAction replaced the engine (retrained)")
	}

	modified := &lpm.RuleSet{Width: rs.Width, Rules: slices.Clone(rs.Rules)}
	for i := range modified.Rules {
		if modified.Rules[i].Prefix == target.Prefix && modified.Rules[i].Len == target.Len {
			modified.Rules[i].Action = newAction
		}
	}
	oracle := lpm.NewTrieMatcher(modified)
	diffSweeps(t, "modify-action", sweep(u.Lookup), sweep(oracle.Lookup))
}

// TestMetamorphicCommitEqualsFreshBuild: committing after insertions must
// yield the same lookup function as building a fresh engine over the merged
// rule-set (and hence as the oracle).
func TestMetamorphicCommitEqualsFreshBuild(t *testing.T) {
	u, rs := sweepUpdatable(t, 30, 23)
	extra := randomRuleSet(t, sweepWidth, 50, 77) // superset pool to draw news from
	var added []lpm.Rule
	for _, r := range extra.Rules {
		if rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
			continue
		}
		r.Action += 100000
		if err := u.Insert(r); err != nil {
			t.Fatal(err)
		}
		added = append(added, r)
		if len(added) == 10 {
			break
		}
	}
	if len(added) == 0 {
		t.Fatal("no fresh rules to insert")
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}

	merged, err := lpm.NewRuleSet(sweepWidth, append(append([]lpm.Rule(nil), rs.Rules...), added...))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(merged, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	want := sweep(fresh.Lookup)
	diffSweeps(t, "commit vs fresh build", sweep(u.Lookup), want)
	diffSweeps(t, "fresh build vs oracle", want, sweep(lpm.NewTrieMatcher(merged).Lookup))
}
