package planetest

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
)

// TestMatrixReadersRaceWriters runs reader goroutines over the updatable
// engine, at every count of ShardCounts, while two writers change it under
// them: one streams inserts — half of all Compacts forced to retrain
// (SiteCompact), so writes rebuild shard engines mid-storm, beside commits
// that re-densify — and one rewrites the actions of base rules. There are no
// value assertions during the storm, since a racing read may legally see
// either side of an update; under -race every lookup must stay free of data
// races, and once the writers stop the engine must agree with a trie oracle
// over the final rule-set.
func TestMatrixReadersRaceWriters(t *testing.T) {
	const width = 32
	rules := RandomRules(width, 400, 31)
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ShardCounts {
		t.Run(fmt.Sprintf("%d-shards", n), func(t *testing.T) {
			in := fault.NewInjector(31)
			in.FailProb(fault.SiteCompact, 0.5)
			u, err := shard.BuildUpdatable(rs, core.Config{BucketSize: 8, Model: QuickModel(), Fault: in.Hook()}, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			fx := &Fixture{u}

			const rounds = 200
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					ks := Corpus(width, rules, 32, rng)
					for i := 0; i < rounds; i++ {
						fx.LookupBatch(ks)
						fx.Lookup(ks[i%len(ks)])
					}
				}(int64(w) + 7)
			}

			// Action rewrites: the first 40 base rules get a new action,
			// round after round.
			final := append([]lpm.Rule(nil), rules...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 5; round++ {
					for i := range final[:40] {
						r := &final[i]
						r.Action = uint64(1<<20 + round*100 + i)
						if err := u.ModifyAction(r.Prefix, r.Len, r.Action); err != nil {
							t.Errorf("modify %v: %v", *r, err)
							return
						}
					}
				}
			}()

			wg.Add(1)
			var accepted []lpm.Rule
			go func() {
				defer wg.Done()
				for _, r := range RandomRules(width, 40, 97) {
					if rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
						continue
					}
					if err := u.Insert(r); err != nil {
						t.Errorf("insert %v: %v", r, err)
						return
					}
					accepted = append(accepted, r)
					if len(accepted)%8 == 0 {
						if err := u.Commit(len(accepted) / 8 % u.Shards()); err != nil {
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

			// Quiesce: check the engine against the oracle over the final
			// rule-set.
			merged, err := lpm.NewRuleSet(width, append(append([]lpm.Rule(nil), final...), accepted...))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(101))
			if err := fx.Check(lpm.NewTrieMatcher(merged), Corpus(width, merged.Rules, 128, rng)); err != nil {
				t.Fatalf("post-storm: %v", err)
			}
		})
	}
}

// TestRebuildPathReadersSeeBeforeOrAfter races readers against a writer whose
// every write is followed by a forced retrain (SiteCompact), so each one
// lands in place and then retrains and swaps a whole engine: inserts mixed
// with modifies and deletes of the same rules.
// The updatable engine at every count of ShardCounts takes each op, and the
// readers run the single-key and batch arms of each. phase is 2j+1 while op j
// runs and 2j+2 once it has returned on every engine; a read that saw at most
// one step of phase is held to the
// trie oracle: exactly the quiescent rule-set's answer, or either the answer
// before or the answer after the op that was running.
func TestRebuildPathReadersSeeBeforeOrAfter(t *testing.T) {
	const width = 32
	rules := RandomRules(width, 400, 41)
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(41)
	in.FailProb(fault.SiteCompact, 1)
	cfg := core.Config{BucketSize: 8, Model: QuickModel(), Fault: in.Hook()}
	var ups []*shard.ShardedUpdatable
	for _, n := range ShardCounts {
		u, err := shard.BuildUpdatable(rs, cfg, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u)
	}

	// The op list: each fresh rule is inserted, and some later modified and
	// then deleted, interleaved with the next rules' inserts.
	type op struct {
		kind byte // 'i'nsert, 'm'odify, 'd'elete
		r    lpm.Rule
	}
	var fresh []lpm.Rule
	for _, r := range RandomRules(width, 24, 43) {
		if rs.Find(r.Prefix, r.Len) == lpm.NoMatch && len(fresh) < 10 {
			fresh = append(fresh, r)
		}
	}
	var ops []op
	for i, r := range fresh {
		ops = append(ops, op{'i', r})
		if i > 0 && i%2 == 1 {
			prev := fresh[i-1]
			prev.Action += 1000
			ops = append(ops, op{'m', prev})
		}
		if i > 1 && i%3 == 2 {
			ops = append(ops, op{'d', fresh[i-2]})
		}
	}

	// ks holds every rule's boundary keys, each fresh rule's span sampled
	// inside, and uniform keys; want[s][i] is the oracle's answer for ks[i]
	// once ops[:s] have run.
	rng := rand.New(rand.NewSource(47))
	ks := Corpus(width, append(append([]lpm.Rule(nil), rules...), fresh...), 64, rng)
	for _, r := range fresh {
		lo, hi := r.Low(width).Uint64(), r.High(width).Uint64()
		for j := 0; j < 4; j++ {
			ks = append(ks, keys.FromUint64(lo+rng.Uint64()%(hi-lo+1)))
		}
	}
	// span[j] indexes the keys inside ops[j]'s rule, the ones op j can move.
	span := make([][]int, len(ops))
	for j, o := range ops {
		for i, k := range ks {
			if !k.Less(o.r.Low(width)) && !o.r.High(width).Less(k) {
				span[j] = append(span[j], i)
			}
		}
	}
	want := make([][]Result, len(ops)+1)
	state := map[[2]uint64]lpm.Rule{}
	for _, r := range rules {
		state[[2]uint64{r.Prefix.Uint64(), uint64(r.Len)}] = r
	}
	for s := 0; ; s++ {
		cur := make([]lpm.Rule, 0, len(state))
		for _, r := range state {
			cur = append(cur, r)
		}
		set, err := lpm.NewRuleSet(width, cur)
		if err != nil {
			t.Fatal(err)
		}
		oracle := lpm.NewTrieMatcher(set)
		want[s] = make([]Result, len(ks))
		for i, k := range ks {
			a, ok := oracle.Lookup(k)
			want[s][i] = Result{a, ok}
		}
		if s == len(ops) {
			break
		}
		key := [2]uint64{ops[s].r.Prefix.Uint64(), uint64(ops[s].r.Len)}
		if ops[s].kind == 'd' {
			delete(state, key)
		} else {
			state[key] = ops[s].r
		}
	}

	var phase atomic.Int64
	// check holds one read, bracketed by phase loads p1 and p2, to the oracle.
	check := func(arm string, p1, p2 int64, i int, got Result) error {
		if p2-p1 > 1 {
			return nil // more than one op overlapped the read
		}
		var cands []Result
		switch {
		case p1%2 == 1: // op (p1-1)/2 was running when the read began
			cands = []Result{want[(p1-1)/2][i], want[(p1+1)/2][i]}
		case p2%2 == 1: // op (p2-1)/2 began during the read
			cands = []Result{want[(p2-1)/2][i], want[(p2+1)/2][i]}
		default: // quiescent after ops[:p1/2]
			cands = []Result{want[p1/2][i]}
		}
		for _, c := range cands {
			if got == c {
				return nil
			}
		}
		return fmt.Errorf("%s: key %v at phase %d..%d: %+v, oracle %+v", arm, ks[i], p1, p2, got, cands)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(fx *Fixture) {
		defer wg.Done()
		arm := fmt.Sprintf("%d shards", fx.Upd.Shards())
		for {
			select {
			case <-done:
				return
			default:
			}
			// Single-key reads aim at the span of the op running, or of the
			// next one.
			for m := 0; m < 64; m++ {
				p1 := phase.Load()
				j := min(int(p1/2), len(ops)-1)
				i := span[j][m%len(span[j])]
				got := fx.Lookup(ks[i])
				if err := check(arm+"/single", p1, phase.Load(), i, got); err != nil {
					t.Error(err)
					return
				}
			}
			p1 := phase.Load()
			res := fx.LookupBatch(ks)
			p2 := phase.Load()
			for i, r := range res {
				if err := check(arm+"/batch", p1, p2, i, r); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}
	for _, u := range ups {
		wg.Add(1)
		go reader(&Fixture{u})
	}

	rebuilt := func() uint64 { return counter(t, "neurolpm_shard_rebuild_ms_count") }
	before := rebuilt()
	for j, o := range ops {
		phase.Store(int64(2*j + 1))
		var err error
		for _, u := range ups {
			switch o.kind {
			case 'i':
				err = u.Insert(o.r)
			case 'm':
				err = u.ModifyAction(o.r.Prefix, o.r.Len, o.r.Action)
			case 'd':
				err = u.Delete(o.r.Prefix, o.r.Len)
			}
			if err != nil {
				break
			}
		}
		if err != nil {
			t.Errorf("op %d %c %v: %v", j, o.kind, o.r, err)
			break
		}
		phase.Store(int64(2*j + 2))
	}
	close(done)
	wg.Wait()
	// Every write took the rebuild path, on every engine at least once.
	if got := rebuilt() - before; got < uint64(len(ups)*len(ops)) {
		t.Errorf("%d rebuilds for %d writes on %d engines", got, len(ops), len(ups))
	}
}
