package planetest

import (
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
	"neurolpm/internal/shard"
)

// TestCachedBatchZeroAllocs pins the shared cached-batch executor
// (core/stack.go lookupBatchCachedStack) at zero steady-state allocations, on both the all-hit path and the miss-fill path. The miss
// scratch rides a sync.Pool, so the pin runs with GC-triggered pool drops
// tolerated via an amortized bound rather than a per-run assertion.
func TestCachedBatchZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; strict zero-alloc pin runs in the non-race suite")
	}
	const width = 32
	rules := RandomRules(width, 400, 91)
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Build(rs, core.Config{BucketSize: 8, Model: QuickModel()})
	if err != nil {
		t.Fatal(err)
	}
	cache := lcache.New(64 << 10)
	st := plane.StackConfig{Cached: true}

	ks := make([]keys.Value, 256)
	for i := range ks {
		ks[i] = rules[(i*7)%len(rules)].Low(width)
	}
	out := make([]core.BatchResult, len(ks))

	run := func() {
		epoch := eng.CacheEpoch().Load()
		out = eng.LookupBatchStack(st, ks, out[:0], cachesim.Null{}, cache, epoch)
	}
	// Warm: fills the cache (subsequent runs are all hits) and primes the
	// scratch pools.
	run()
	if avg := testing.AllocsPerRun(50, run); avg > 0 {
		t.Errorf("all-hit cached batch allocates %.2f/op, want 0", avg)
	}

	// Miss-fill path: bump the epoch before each run so every probe goes
	// stale and the whole batch takes the gather-miss → runBatch → scatter
	// arm. Scratch reuse must keep this allocation-free too.
	missRun := func() {
		eng.CacheEpoch().Bump()
		run()
	}
	missRun()
	if avg := testing.AllocsPerRun(50, missRun); avg > 0 {
		t.Errorf("miss-fill cached batch allocates %.2f/op, want 0", avg)
	}
}

// TestQuantizedZeroAllocs pins the quantized inference arm at zero
// steady-state allocations through every stack shape it serves: the uncached
// single-key arm, the pipelined uncached batch arm, and the cached-batch
// miss-fill arm (where quantized runBatch fills the misses). The fixed-point
// plane must not cost heap traffic the float plane doesn't.
func TestQuantizedZeroAllocs(t *testing.T) {
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
	st := plane.StackConfig{Inference: plane.Quantized}

	ks := make([]keys.Value, 256)
	for i := range ks {
		ks[i] = rules[(i*7)%len(rules)].Low(width)
	}
	out := make([]core.BatchResult, len(ks))

	single := func() {
		for _, k := range ks[:64] {
			eng.LookupStack(st, k, nil)
		}
	}
	single()
	if avg := testing.AllocsPerRun(50, single); avg > 0 {
		t.Errorf("quantized single-key lookup allocates %.2f/64 keys, want 0", avg)
	}

	batch := func() {
		out = eng.LookupBatchStack(st, ks, out[:0], cachesim.Null{}, nil, 0)
	}
	batch()
	if avg := testing.AllocsPerRun(50, batch); avg > 0 {
		t.Errorf("quantized uncached batch allocates %.2f/op, want 0", avg)
	}

	cache := lcache.New(64 << 10)
	cst := plane.StackConfig{Inference: plane.Quantized, Cached: true}
	missRun := func() {
		eng.CacheEpoch().Bump()
		epoch := eng.CacheEpoch().Load()
		out = eng.LookupBatchStack(cst, ks, out[:0], cachesim.Null{}, cache, epoch)
	}
	missRun()
	if avg := testing.AllocsPerRun(50, missRun); avg > 0 {
		t.Errorf("quantized miss-fill cached batch allocates %.2f/op, want 0", avg)
	}
}

// TestShardedBatchZeroAllocs pins the sharded uncached batch at zero
// steady-state allocations when the caller supplies dst — the call the wire
// readers and /batch make (serve.batchStack): at one shard the keys and dst go
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
	for _, n := range []int{1, 4} {
		sh, err := shard.BuildUpdatable(rs, core.Config{BucketSize: 8, Model: QuickModel()}, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]shard.Result, len(ks))
		batch := func() { dst = sh.LookupBatchStack(plane.StackConfig{}, ks, dst) }
		batch()
		if avg := testing.AllocsPerRun(50, batch); avg > 0 {
			t.Errorf("%d shards: uncached batch into a caller's dst allocates %.2f/op, want 0", n, avg)
		}
		sh.Close()
	}
}
