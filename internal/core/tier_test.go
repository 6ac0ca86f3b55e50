package core

import (
	"math/rand"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
	"neurolpm/internal/tier"
)

func quickTiered() Config {
	cfg := quickBucketed()
	cfg.Tier = tier.Config{Enabled: true}
	return cfg
}

// TestTieredOracleEquivalence is the engine-level half of the tier
// correctness contract: with every bucket demoted, every inference arm must
// keep answering exactly what the trie oracle answers, and the traces must
// show the fetches coming from the slow tier.
func TestTieredOracleEquivalence(t *testing.T) {
	rs := randomRuleSet(t, 32, 600, 9)
	e, err := Build(rs, quickTiered())
	if err != nil {
		t.Fatal(err)
	}
	ts := e.TierStore()
	if ts == nil {
		t.Fatal("tiered config built an untiered engine")
	}
	assertMatchesOracle(t, e, rs, 2000, 90)

	ts.DemoteAll()
	st := ts.Stats()
	if st.FastResident != 0 || st.ColdBytes == 0 {
		t.Fatalf("after DemoteAll: %+v", st)
	}
	assertMatchesOracle(t, e, rs, 2000, 91)
	tr := e.LookupMem(randomKey(rand.New(rand.NewSource(7)), 32), cachesim.Null{})
	if !tr.BucketRead || !tr.ColdRead {
		t.Fatalf("all-cold engine trace: %+v", tr)
	}
	// Reference and quantized arms route through the same tier map.
	for _, inf := range []plane.Inference{plane.Reference, plane.Quantized} {
		tr, _ := e.LookupSpan(inf, randomKey(rand.New(rand.NewSource(8)), 32), cachesim.Null{})
		if !tr.ColdRead {
			t.Fatalf("%v arm bypassed the cold tier: %+v", inf, tr)
		}
	}
	if err := e.Verify(); err != nil {
		t.Fatalf("Verify on all-cold engine: %v", err)
	}

	// Promotion on access bursts: the traffic above fed the burst counters,
	// so a rebalance pass pulls the touched buckets back up and bumps the
	// cache epoch exactly once.
	before := e.CacheEpoch().Load()
	promoted, _ := e.RebalanceTier()
	if promoted == 0 {
		t.Fatal("no promotions after cold traffic")
	}
	if got := e.CacheEpoch().Load(); got != before+1 {
		t.Fatalf("epoch after rebalance = %d, want %d", got, before+1)
	}
	// The epoch moves iff a pass migrated something (a second pass may demote
	// sketch-cold buckets — that's placement working, and it must bump too).
	mid := e.CacheEpoch().Load()
	p2, d2 := e.RebalanceTier()
	got := e.CacheEpoch().Load()
	if p2+d2 == 0 && got != mid {
		t.Fatalf("idle rebalance bumped the epoch to %d", got)
	}
	if p2+d2 > 0 && got != mid+1 {
		t.Fatalf("migrating rebalance bumped the epoch to %d, want %d", got, mid+1)
	}
	assertMatchesOracle(t, e, rs, 2000, 92)
}

// TestTieredConfigInheritedByRebuild checks the Config ride-along: an
// InsertBatch rebuild must come up tiered (all-fast, placement re-learned),
// like the fault hook does.
func TestTieredConfigInheritedByRebuild(t *testing.T) {
	rs := randomRuleSet(t, 32, 300, 11)
	e, err := Build(rs, quickTiered())
	if err != nil {
		t.Fatal(err)
	}
	e.TierStore().DemoteAll()
	ins := make([]lpm.Rule, 0, 20)
	for _, r := range randomRuleSet(t, 32, 60, 12).Rules {
		if rs.Find(r.Prefix, r.Len) == lpm.NoMatch {
			ins = append(ins, r)
		}
		if len(ins) == 20 {
			break
		}
	}
	next, err := e.InsertBatch(ins)
	if err != nil {
		t.Fatal(err)
	}
	ts := next.TierStore()
	if ts == nil {
		t.Fatal("rebuilt engine lost the tier config")
	}
	if st := ts.Stats(); st.FastResident != st.Buckets {
		t.Fatalf("rebuilt engine did not start all-fast: %+v", st)
	}
}

// TestUntieredEngineHasNoTierStore pins the disabled path: default configs
// stay nil-tier and RebalanceTier is a no-op that never bumps the epoch.
func TestUntieredEngineHasNoTierStore(t *testing.T) {
	rs := randomRuleSet(t, 32, 200, 13)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	if e.TierStore() != nil {
		t.Fatal("untiered config built a tier store")
	}
	before := e.CacheEpoch().Load()
	if p, d := e.RebalanceTier(); p != 0 || d != 0 {
		t.Fatalf("RebalanceTier on untiered engine = (%d,%d)", p, d)
	}
	if e.CacheEpoch().Load() != before {
		t.Fatal("no-op rebalance bumped the epoch")
	}
}
