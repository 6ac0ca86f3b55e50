package planetest

import (
	"fmt"
	"math/rand"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
)

// TestSweepEveryKey runs Sweep over every key of a sweepWidth-bit domain, at
// one shard, for the SRAM-only engine (K = 1) and 8-range buckets: on the
// built engine, and again after an update run — inserts the bucketized engine
// absorbs into spill records and the SRAM-only one retrains in, deletes and
// action changes.
func TestSweepEveryKey(t *testing.T) {
	const base, extra = 1500, 100
	all := RandomRules(sweepWidth, base+extra, 45)
	for _, k := range []int{1, 8} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.BucketSize = k
			if k == 1 {
				cfg = core.SRAMOnlyConfig()
			}
			live := append([]lpm.Rule(nil), all[:base]...)
			rs, err := lpm.NewRuleSet(sweepWidth, live)
			if err != nil {
				t.Fatal(err)
			}
			u, err := shard.BuildUpdatable(rs, cfg, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := Sweep(u, rs); err != nil {
				t.Fatalf("built: %v", err)
			}

			rng := rand.New(rand.NewSource(int64(k)))
			for _, r := range all[base:] {
				if err := u.Insert(r); err != nil {
					t.Fatal(err)
				}
				live = append(live, r)
			}
			for i := 0; i < 100; i++ {
				j := rng.Intn(len(live))
				r := live[j]
				if i%4 == 0 {
					r.Action = uint64(rng.Intn(1<<16)) + 1
					if err := u.ModifyAction(r.Prefix, r.Len, r.Action); err != nil {
						t.Fatal(err)
					}
					live[j] = r
					continue
				}
				if err := u.Delete(r.Prefix, r.Len); err != nil {
					t.Fatal(err)
				}
				live = append(live[:j], live[j+1:]...)
			}
			if k > 1 && u.Engine(0).SpilledBuckets() == 0 {
				t.Fatal("the update run spilled no bucket")
			}
			if rs, err = lpm.NewRuleSet(sweepWidth, live); err != nil {
				t.Fatal(err)
			}
			if err := Sweep(u, rs); err != nil {
				t.Fatalf("after updates: %v", err)
			}
		})
	}
}
