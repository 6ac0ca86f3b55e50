package planetest

import (
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
)

// TestEngineZeroAllocs pins the engine's two lookup shapes at zero
// steady-state allocations: the bare single-key Lookup and LookupBatch into a
// caller's out.
func TestEngineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; strict zero-alloc pin runs in the non-race suite")
	}
	const width = 32
	rules := RandomRules(width, 400, 93)
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(rs, core.Config{BucketSize: 8, Model: QuickModel()})
	if err != nil {
		t.Fatal(err)
	}

	ks := make([]keys.Value, 256)
	for i := range ks {
		ks[i] = rules[(i*7)%len(rules)].Low(width)
	}
	out := make([]core.BatchResult, len(ks))

	single := func() {
		for _, k := range ks[:64] {
			eng.Lookup(k)
		}
	}
	single()
	if avg := testing.AllocsPerRun(50, single); avg > 0 {
		t.Errorf("single-key Lookup allocates %.2f/64 keys, want 0", avg)
	}

	batch := func() {
		out = eng.LookupBatch(ks, out[:0])
	}
	batch()
	if avg := testing.AllocsPerRun(50, batch); avg > 0 {
		t.Errorf("LookupBatch into a caller's out allocates %.2f/op, want 0", avg)
	}
}

// TestShardedBatchZeroAllocs pins the sharded batch at zero
// steady-state allocations when the caller supplies dst — the call the wire
// readers make (LookupBatchInto): at one shard the keys and dst go
// straight to the engine, at four the gather/scatter scratch rides one
// sync.Pool and every group is answered on the calling goroutine.
func TestShardedBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; strict zero-alloc pin runs in the non-race suite")
	}
	const width = 32
	rules := RandomRules(width, 400, 95)
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	ks := make([]keys.Value, 256)
	for i := range ks {
		ks[i] = rules[(i*7)%len(rules)].Low(width)
	}
	for _, n := range ShardCounts {
		sh, err := shard.BuildUpdatable(rs, core.Config{BucketSize: 8, Model: QuickModel()}, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]shard.Result, len(ks))
		batch := func() { dst = sh.LookupBatchInto(ks, dst) }
		batch()
		if avg := testing.AllocsPerRun(50, batch); avg > 0 {
			t.Errorf("%d shards: batch into a caller's dst allocates %.2f/op, want 0", n, avg)
		}
		sh.Close()
	}
}
