package planetest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
)

// TestSweepEveryKey runs Sweep over every key of a sweepWidth-bit domain for
// the SRAM-only engine (K = 1) and 8-range buckets, at every count in
// ShardCounts, in four phases:
//
//   - built;
//   - after an update run: inserts the bucketized engine absorbs into spill
//     records and the SRAM-only one retrains in, then deletes and action
//     changes, none of which may swap an engine (they modify in place, §6.5),
//     then a pair of inserts — a long rule and a /1, which at four shards is
//     replicated into two;
//   - after the pair is deleted again, which must give back the lookup
//     function it was inserted into;
//   - after every shard is committed.
func TestSweepEveryKey(t *testing.T) {
	const base, extra = 1500, 100
	// The upper half of the domain holds no rule shorter than /8, so the
	// pair's /1 over it is free, and answers — in both of the shards it is
	// replicated into at four — wherever no longer rule does. The lower half
	// keeps its short rules, a /1 among them replicated at build.
	var all []lpm.Rule
	for _, r := range RandomRules(sweepWidth, 2*(base+extra), 45) {
		if (r.Len >= 8 || r.Prefix.Lo>>(sweepWidth-1) == 0) && len(all) < base+extra {
			all = append(all, r)
		}
	}
	long := lpm.Rule{Len: sweepWidth, Action: 1<<20 + 1}
	for slices.ContainsFunc(all, func(r lpm.Rule) bool { return r.Prefix == long.Prefix && r.Len == long.Len }) {
		long.Prefix = long.Prefix.AddUint64(7919)
	}
	pair := []lpm.Rule{long, {Prefix: keys.FromUint64(1 << (sweepWidth - 1)), Len: 1, Action: 1 << 20}}
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			for _, n := range ShardCounts {
				t.Run(fmt.Sprintf("%d-shards", n), func(t *testing.T) {
					t.Parallel() // the shard counts share nothing but the rules
					cfg := core.DefaultConfig()
					cfg.BucketSize = k
					if k == 1 {
						cfg = core.SRAMOnlyConfig()
					}
					live := slices.Clone(all[:base])
					rs, err := lpm.NewRuleSet(sweepWidth, live)
					if err != nil {
						t.Fatal(err)
					}
					u, err := shard.BuildUpdatable(rs, cfg, n, 0)
					if err != nil {
						t.Fatal(err)
					}
					sweep := func(phase string) {
						t.Helper()
						if rs, err = lpm.NewRuleSet(sweepWidth, live); err != nil {
							t.Fatal(err)
						}
						if err := Sweep(u, rs); err != nil {
							t.Fatalf("%s: %v", phase, err)
						}
					}
					engines := func() []*core.Engine {
						out := make([]*core.Engine, u.Shards())
						for i := range out {
							out[i] = u.Engine(i)
						}
						return out
					}
					sweep("built")

					rng := rand.New(rand.NewSource(int64(k)))
					for _, r := range all[base:] {
						if err := u.Insert(r); err != nil {
							t.Fatal(err)
						}
						live = append(live, r)
					}
					for i := 0; i < 100; i++ {
						j := rng.Intn(len(live))
						r, before := live[j], engines()
						if i%4 == 0 {
							r.Action = uint64(rng.Intn(1<<16)) + 1
							if err := u.ModifyAction(r.Prefix, r.Len, r.Action); err != nil {
								t.Fatal(err)
							}
							live[j] = r
						} else {
							if err := u.Delete(r.Prefix, r.Len); err != nil {
								t.Fatal(err)
							}
							live = append(live[:j], live[j+1:]...)
						}
						if !slices.Equal(engines(), before) {
							t.Fatalf("update %d on %v swapped an engine", i, r)
						}
					}
					for _, r := range pair {
						if err := u.Insert(r); err != nil {
							t.Fatal(err)
						}
					}
					live = append(live, pair...)
					spilled := 0
					for _, e := range engines() {
						spilled += e.SpilledBuckets()
					}
					if k > 1 && spilled == 0 {
						t.Fatal("the update run spilled no bucket")
					}
					sweep("after updates")

					for _, r := range pair {
						if err := u.Delete(r.Prefix, r.Len); err != nil {
							t.Fatal(err)
						}
					}
					live = live[:len(live)-len(pair)]
					sweep("after the pair")

					for i := range u.Shards() {
						if err := u.Commit(i); err != nil {
							t.Fatal(err)
						}
					}
					sweep("committed")
				})
			}
		})
	}
}
