package planetest

import (
	"math/rand"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
)

// TestStackMetamorphic checks oracle-free invariants of the lookup pipeline,
// with the updatable engine built at every count of ShardCounts over one
// rule-set:
//
//  1. every shard count answers every key identically;
//  2. the batch entry point equals the single-key entry point, pointwise;
//  3. batch answers are invariant under permutation of the key slice;
//  4. duplicating every key yields pairwise-identical answers;
//  5. repeating the identical batch yields identical answers.
//
// None of these properties consults the oracle — they hold for any correct
// implementation, so a violation localizes a divergence BETWEEN variants
// even when both happen to agree with the trie on the sampled keys. The
// retrain-storm phase then forces a retrain after every write: while the
// retrains fail, every insert still lands and each engine answers the merged
// oracle; once they succeed, the next writes fold every spill record back,
// and each engine holds property 2 and the merged oracle.
func TestStackMetamorphic(t *testing.T) {
	const width = 32
	rules := RandomRules(width, 600, 71)
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(71)
	var fxs []*Fixture
	for _, n := range ShardCounts {
		u, err := shard.BuildUpdatable(rs, core.Config{BucketSize: 8, Model: QuickModel(), Fault: in.Hook()}, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		fxs = append(fxs, &Fixture{u})
	}

	rng := rand.New(rand.NewSource(73))
	ks := Corpus(width, rules, 256, rng)

	// Properties 1+2: every shard count, batch and single-key, equals the
	// first one's batch answers.
	ref := fxs[0].LookupBatch(ks)
	for _, fx := range fxs {
		n := fx.Upd.Shards()
		batch := fx.LookupBatch(ks)
		for i, k := range ks {
			if batch[i] != ref[i] {
				t.Fatalf("%d shards: batch key %v: %+v, %d shards got %+v", n, k, batch[i], ShardCounts[0], ref[i])
			}
			if got := fx.Lookup(k); got != ref[i] {
				t.Fatalf("%d shards: single key %v: %+v, batch %+v", n, k, got, ref[i])
			}
		}

		// Property 3: permutation invariance.
		perm := rng.Perm(len(ks))
		pks := make([]keys.Value, len(ks))
		for i, j := range perm {
			pks[i] = ks[j]
		}
		pres := fx.LookupBatch(pks)
		for i, j := range perm {
			if pres[i] != ref[j] {
				t.Fatalf("%d shards: permuted batch key %v: %+v, in-order %+v", n, pks[i], pres[i], ref[j])
			}
		}

		// Property 4: duplication — both occurrences answer alike.
		doubled := append(append(make([]keys.Value, 0, 2*len(ks)), ks...), ks...)
		dres := fx.LookupBatch(doubled)
		for i := range ks {
			if dres[i] != dres[i+len(ks)] {
				t.Fatalf("%d shards: key %v answers diverge within one batch: %+v then %+v",
					n, ks[i], dres[i], dres[i+len(ks)])
			}
			if dres[i] != ref[i] {
				t.Fatalf("%d shards: doubled batch key %v: %+v, plain batch %+v", n, ks[i], dres[i], ref[i])
			}
		}

		// Property 5: repeat — the second run of the identical batch answers
		// alike.
		again := fx.LookupBatch(ks)
		for i := range ks {
			if again[i] != ref[i] {
				t.Fatalf("%d shards: repeat batch key %v: %+v, first run %+v", n, ks[i], again[i], ref[i])
			}
		}
	}

	t.Run("retrain-storm", func(t *testing.T) {
		// Every Compact is forced to retrain (SiteCompact), and while every
		// retrain fails (SiteRetrain) each insert must still succeed and
		// answer from where it landed.
		in.FailProb(fault.SiteCompact, 1)
		in.FailProb(fault.SiteRetrain, 1)
		var fresh []lpm.Rule
		for _, r := range RandomRules(width, 24, 99) {
			if rs.Find(r.Prefix, r.Len) == lpm.NoMatch {
				fresh = append(fresh, r)
			}
		}
		if len(fresh) == 0 {
			t.Fatal("no fresh rules for the storm")
		}
		merged, err := lpm.NewRuleSet(width, append(append([]lpm.Rule(nil), rules...), fresh...))
		if err != nil {
			t.Fatal(err)
		}
		mks := Corpus(width, merged.Rules, 256, rng)
		for _, fx := range fxs {
			for _, r := range fresh {
				if err := fx.Upd.Insert(r); err != nil {
					t.Fatalf("%d shards: insert %v during the storm: %v", fx.Upd.Shards(), r, err)
				}
			}
			if err := fx.Check(lpm.NewTrieMatcher(merged), mks); err != nil {
				t.Fatalf("storm: %v", err)
			}
		}

		// Recovery: the retrains succeed, so a write to each fresh rule
		// swaps in a rebuilt engine for every shard the storm touched, and
		// the batch and single-key answers agree with each other and with a
		// trie oracle over base + fresh.
		in.Clear(fault.SiteRetrain)
		for _, fx := range fxs {
			for _, r := range fresh {
				if err := fx.Upd.ModifyAction(r.Prefix, r.Len, r.Action); err != nil {
					t.Fatalf("%d shards: modify %v after the storm: %v", fx.Upd.Shards(), r, err)
				}
			}
			for s := 0; s < fx.Upd.Shards(); s++ {
				if got := fx.Upd.Engine(s).SpilledBuckets(); got != 0 {
					t.Fatalf("%d shards: shard %d keeps %d spilled buckets after recovery", fx.Upd.Shards(), s, got)
				}
			}
			ref := fx.LookupBatch(mks)
			for i, k := range mks {
				if got := fx.Lookup(k); got != ref[i] {
					t.Fatalf("%d shards: recovery: single key %v: %+v, batch %+v", fx.Upd.Shards(), k, got, ref[i])
				}
			}
			if err := fx.Check(lpm.NewTrieMatcher(merged), mks); err != nil {
				t.Fatalf("recovery: %v", err)
			}
		}
		in.Clear(fault.SiteCompact)
	})
}
