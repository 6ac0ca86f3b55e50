package planetest

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
	"neurolpm/internal/shard"
	"neurolpm/internal/tier"
)

// TestTierMigrationRace hammers the tier store's race-free-by-construction
// claim under the race detector: reader goroutines sweep the full combo
// matrix while one goroutine churns placement (rebalance passes interleaved
// with full demotions) and another streams inserts and commits through the
// sharded side. There are no value assertions during the storm — racing
// migrations may legally serve either tier — but every lookup must stay
// memory-safe, and once the churn stops the whole matrix must agree with a
// trie oracle over the final rule-set.
func TestTierMigrationRace(t *testing.T) {
	const width = 32
	rules := RandomRules(width, 400, 31)
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := tier.Config{Enabled: true, DemoteBelow: ^uint32(0)}
	eng, err := core.Build(rs, core.Config{BucketSize: 8, Model: QuickModel(), Tier: tcfg})
	if err != nil {
		t.Fatal(err)
	}
	u, err := shard.BuildUpdatable(rs, core.Config{BucketSize: 8, Model: QuickModel(), Tier: tcfg}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	u.EnableCache(64 << 10)
	fx := NewFixture(width, eng, u)
	eng.TierStore().DemoteAll()

	const rounds = 200
	combos := plane.Combos()
	var wg sync.WaitGroup

	// Readers: each sweeps the matrix with its own key corpus and its own
	// Fixture over the shared engines — the fixture-private result cache is
	// a single-owner structure (like the spares serve checks out per call),
	// so sharing one across readers would be a test bug, not an engine race.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			mine := NewFixture(width, eng, u)
			rng := rand.New(rand.NewSource(seed))
			ks := Corpus(width, rules, 32, rng)
			for i := 0; i < rounds; i++ {
				cb := combos[i%len(combos)]
				mine.LookupBatch(cb, ks)
				mine.Lookup(cb, ks[i%len(ks)])
			}
		}(int64(w) + 7)
	}

	// Placement churn: rebalance passes (burst promotion + aggressive
	// sketch demotion) interleaved with full demotions on every engine.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			eng.RebalanceTier()
			u.RebalanceTiers()
			if i%8 == 0 {
				eng.TierStore().DemoteAll()
				for s := 0; s < u.Shards(); s++ {
					u.Engine(s).TierStore().DemoteAll()
				}
			}
		}
	}()

	// Updates: inserts trickle in and commits rebuild shard engines mid-storm
	// (each rebuild swaps in a fresh all-fast tier store under the readers).
	wg.Add(1)
	var accepted []lpm.Rule
	go func() {
		defer wg.Done()
		for _, r := range RandomRules(width, 40, 97) {
			if rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
				continue
			}
			if err := u.Insert(r); err != nil {
				if errors.Is(err, core.ErrDeltaFull) {
					u.CommitAll()
					continue
				}
				t.Errorf("insert %v: %v", r, err)
				return
			}
			accepted = append(accepted, r)
			if len(accepted)%8 == 0 {
				if err := u.CommitAll(); err != nil {
					t.Errorf("mid-storm commit: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce: flush the stragglers, settle placement, and check the whole
	// sharded matrix against the oracle (the single engine still serves the
	// base set — check it separately).
	if err := u.CommitAll(); err != nil {
		t.Fatalf("final commit: %v", err)
	}
	u.RebalanceTiers()
	merged, err := lpm.NewRuleSet(width, append(append([]lpm.Rule(nil), rules...), accepted...))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(101))
	if err := fx.CheckCombos(ShardedCombos(), lpm.NewTrieMatcher(merged), Corpus(width, merged.Rules, 128, rng)); err != nil {
		t.Fatalf("post-storm sharded matrix: %v", err)
	}
	if err := fx.CheckCombos(SingleCombos(), lpm.NewTrieMatcher(rs), Corpus(width, rules, 128, rng)); err != nil {
		t.Fatalf("post-storm single matrix: %v", err)
	}
}
