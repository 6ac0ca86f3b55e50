// Failure tests for the update path (DESIGN.md §11): a failed rebuild must
// leave every shard as it was.
package shard

import (
	"errors"
	"sync/atomic"
	"testing"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

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
			lo, hi := u.coveredShards(r.Prefix, r.Len)
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
