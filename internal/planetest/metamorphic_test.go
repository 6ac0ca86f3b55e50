package planetest

import (
	"errors"
	"math/rand"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
)

// TestStackMetamorphic checks oracle-free invariants of the lookup matrix:
// with both topologies serving the same rule-set,
//
//  1. both topologies answer every key identically, single ≡ sharded;
//  2. the batch entry point equals the single-key entry point, pointwise;
//  3. batch answers are invariant under permutation of the key slice;
//  4. duplicating every key yields pairwise-identical answers;
//  5. repeating the identical batch yields identical answers.
//
// None of these properties consults the oracle — they hold for any correct
// implementation, so a violation localizes a divergence BETWEEN variants
// even when both happen to agree with the trie on the sampled keys. The
// retrain-storm phase then forces every insert onto the rebuild path: while
// the rebuilds fail, the sharded half must still answer the base oracle;
// once they succeed, it holds property 2 and the merged oracle.
func TestStackMetamorphic(t *testing.T) {
	const width = 32
	rules := RandomRules(width, 600, 71)
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(rs, core.Config{BucketSize: 8, Model: QuickModel()})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(71)
	u, err := shard.BuildUpdatable(rs, core.Config{BucketSize: 8, Model: QuickModel(), Fault: in.Hook()}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	fx := NewFixture(width, eng, u)

	rng := rand.New(rand.NewSource(73))
	ks := Corpus(width, rules, 256, rng)
	tps := Topologies()

	// Properties 1+2: both topologies, batch and single-key, equal the single
	// engine's batch answers.
	ref := fx.LookupBatch(Single, ks)
	for _, tp := range tps {
		batch := fx.LookupBatch(tp, ks)
		for i, k := range ks {
			if batch[i] != ref[i] {
				t.Fatalf("%s: batch key %v: %+v, %s got %+v", tp, k, batch[i], Single, ref[i])
			}
			if got := fx.Lookup(tp, k); got != ref[i] {
				t.Fatalf("%s: single key %v: %+v, batch %+v", tp, k, got, ref[i])
			}
		}
	}

	for _, tp := range tps {
		// Property 3: permutation invariance.
		perm := rng.Perm(len(ks))
		pks := make([]keys.Value, len(ks))
		for i, j := range perm {
			pks[i] = ks[j]
		}
		pres := fx.LookupBatch(tp, pks)
		for i, j := range perm {
			if pres[i] != ref[j] {
				t.Fatalf("%s: permuted batch key %v: %+v, in-order %+v", tp, pks[i], pres[i], ref[j])
			}
		}

		// Property 4: duplication — both occurrences answer alike.
		doubled := append(append(make([]keys.Value, 0, 2*len(ks)), ks...), ks...)
		dres := fx.LookupBatch(tp, doubled)
		for i := range ks {
			if dres[i] != dres[i+len(ks)] {
				t.Fatalf("%s: key %v answers diverge within one batch: %+v then %+v",
					tp, ks[i], dres[i], dres[i+len(ks)])
			}
			if dres[i] != ref[i] {
				t.Fatalf("%s: doubled batch key %v: %+v, plain batch %+v", tp, ks[i], dres[i], ref[i])
			}
		}

		// Property 5: repeat — the second run of the identical batch answers
		// alike.
		again := fx.LookupBatch(tp, ks)
		for i := range ks {
			if again[i] != ref[i] {
				t.Fatalf("%s: repeat batch key %v: %+v, first run %+v", tp, ks[i], again[i], ref[i])
			}
		}
	}

	t.Run("retrain-storm", func(t *testing.T) {
		// Every insert is refused by the engine (SiteAbsorb), so each takes
		// the rebuild path. While every rebuild fails (SiteRetrain) each
		// insert must fail and leave the sharded topology answering exactly
		// what the base rule-set's oracle answers.
		in.FailProb(fault.SiteAbsorb, 1)
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
		for _, r := range fresh {
			if err := u.Insert(r); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("insert %v during the storm: %v", r, err)
			}
		}
		if err := fx.Check(Sharded, lpm.NewTrieMatcher(rs), ks); err != nil {
			t.Fatalf("storm: a failed insert changed an answer: %v", err)
		}

		// Recovery: the rebuilds succeed, every insert is retrained in before
		// it returns, and the sharded batch and single-key answers agree with
		// each other and with a trie oracle over base + fresh.
		in.Clear(fault.SiteRetrain)
		for _, r := range fresh {
			if err := u.Insert(r); err != nil {
				t.Fatalf("insert %v after the storm: %v", r, err)
			}
		}
		in.Clear(fault.SiteAbsorb)
		merged, err := lpm.NewRuleSet(width, append(append([]lpm.Rule(nil), rules...), fresh...))
		if err != nil {
			t.Fatal(err)
		}
		mks := Corpus(width, merged.Rules, 256, rng)
		sref := fx.LookupBatch(Sharded, mks)
		for i, k := range mks {
			if got := fx.Lookup(Sharded, k); got != sref[i] {
				t.Fatalf("recovery: single key %v: %+v, batch %+v", k, got, sref[i])
			}
		}
		if err := fx.Check(Sharded, lpm.NewTrieMatcher(merged), mks); err != nil {
			t.Fatalf("recovery: %v", err)
		}
	})
}
