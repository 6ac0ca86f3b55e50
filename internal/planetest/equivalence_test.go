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
	"neurolpm/internal/workload"
)

// TestLookupEntryPointsEquivalent drives every exported lookup entry point —
// single-key and batch, core and shard, on every inference plane, cached and
// uncached — over one shared workload-calibrated corpus and asserts each
// answers exactly what the trie oracle answers, misses included. This is the
// table-driven face of the equivalence contract the fuzz target probes
// adversarially: adding a lookup entry point means adding a row here, not a
// new harness.
//
// Rows are named "<fixture>.<entry point>[/<stack>]":
//
//	Engine            core.Build, the library facade
//	Updatable         core.NewUpdatable over it, the per-shard writer
//	Sharded           shard.BuildUpdatable at one shard, the degenerate topology
//	ShardedUpdatable  shard.BuildUpdatable at four shards
//
// Each of the 15 exported entry points has the row that bears its name. The
// rows named after the constant-config wrappers that were folded into the
// stack executors (…Cached, …BatchMem, …BatchCached, …BatchCachedMem) keep
// their names and spell out the executor call the wrapper made, so every
// argument combination that was pinned stays pinned.
func TestLookupEntryPointsEquivalent(t *testing.T) {
	profile := workload.RIPE()
	width := profile.Width
	rs, err := workload.Generate(profile, 1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(384, 9))
	if err != nil {
		t.Fatal(err)
	}
	// The calibrated trace is hit-heavy; uniform keys supply the misses.
	corpus := append(trace, workload.UniformTrace(width, 128, 11)...)

	oracle := lpm.NewTrieMatcher(rs)
	hits, misses := 0, 0
	for _, k := range corpus {
		if _, ok := oracle.Lookup(k); ok {
			hits++
		} else {
			misses++
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("corpus must cover both outcomes: %d hits, %d misses", hits, misses)
	}

	cfg := core.Config{BucketSize: 8, Model: QuickModel()}
	eng, err := core.Build(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	upd := core.NewUpdatable(eng, 0)
	type shardedFixture struct {
		name string
		*shard.ShardedUpdatable
	}
	sharded := []shardedFixture{{name: "Sharded"}, {name: "ShardedUpdatable"}}
	for i, n := range []int{1, 4} {
		su, err := shard.BuildUpdatable(rs, cfg, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer su.Close()
		su.EnableCache(64 << 10)
		sharded[i].ShardedUpdatable = su
	}
	cache := lcache.New(64 << 10)
	cached := plane.StackConfig{Cached: true}
	// cacheFor hands a stack its cache argument: the shared one, or none.
	cacheFor := func(st plane.StackConfig) *lcache.Cache {
		if st.Cached {
			return cache
		}
		return nil
	}

	type single struct {
		name string
		look func(k keys.Value) (uint64, bool)
	}
	// stacked adapts a three-result stack executor to a row.
	stacked := func(look func(plane.StackConfig, keys.Value) (uint64, bool, lcache.Outcome), st plane.StackConfig) func(keys.Value) (uint64, bool) {
		return func(k keys.Value) (uint64, bool) {
			a, ok, _ := look(st, k)
			return a, ok
		}
	}
	engStack := func(st plane.StackConfig, k keys.Value) (uint64, bool, lcache.Outcome) {
		return eng.LookupStack(st, k, cacheFor(st))
	}
	updStack := func(st plane.StackConfig, k keys.Value) (uint64, bool, lcache.Outcome) {
		return upd.LookupStack(st, k, cacheFor(st))
	}
	singles := []single{
		{"Engine.Lookup", eng.Lookup},
		{"Engine.LookupReference", eng.LookupReference},
		{"Engine.LookupQuantized", eng.LookupQuantized},
		{"Engine.LookupMem", func(k keys.Value) (uint64, bool) {
			tr := eng.LookupMem(k, cachesim.Null{})
			return tr.Action, tr.Matched
		}},
		{"Engine.LookupCached", stacked(engStack, cached)},
		{"Updatable.Lookup", upd.Lookup},
		{"Updatable.LookupCached", stacked(updStack, cached)},
	}
	for inf := plane.Inference(0); inf < plane.NumInference; inf++ {
		inf := inf
		name := "Engine.LookupSpan"
		if inf != plane.Compiled {
			name += "/" + inf.String()
		}
		singles = append(singles, single{name, func(k keys.Value) (uint64, bool) {
			tr, _ := eng.LookupSpan(inf, k, cachesim.Null{})
			return tr.Action, tr.Matched
		}})
	}
	for _, su := range sharded {
		singles = append(singles,
			single{su.name + ".Lookup", su.Lookup},
			single{su.name + ".LookupCached", stacked(su.LookupStack, cached)})
	}
	for _, st := range plane.Matrix() {
		singles = append(singles,
			single{"Engine.LookupStack/" + st.String(), stacked(engStack, st)},
			single{"Updatable.LookupStack/" + st.String(), stacked(updStack, st)})
		for _, su := range sharded {
			singles = append(singles, single{su.name + ".LookupStack/" + st.String(), stacked(su.LookupStack, st)})
		}
	}
	for _, tc := range singles {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range corpus {
				want, wantOK := oracle.Lookup(k)
				got, ok := tc.look(k)
				if ok != wantOK || (wantOK && got != want) {
					t.Fatalf("key %v: (%d,%v), oracle (%d,%v)", k, got, ok, want, wantOK)
				}
			}
		})
	}

	type batch struct {
		name  string
		batch func(ks []keys.Value) []Result
	}
	// engBatch is a row on the engine's batch executor: st selects the stack,
	// mem receives the bucket fetches.
	results := func(res []core.BatchResult) []Result { // shard.Result is the same type
		out := make([]Result, len(res))
		for i, r := range res {
			out[i] = Result{r.Action, r.Matched}
		}
		return out
	}
	engBatch := func(st plane.StackConfig, mem cachesim.Mem) func([]keys.Value) []Result {
		return func(ks []keys.Value) []Result {
			return results(eng.LookupBatchStack(st, ks, nil, mem, cacheFor(st), eng.CacheEpoch().Load()))
		}
	}
	batches := []batch{
		{"Engine.LookupBatch", func(ks []keys.Value) []Result { return results(eng.LookupBatch(ks, nil)) }},
		{"Engine.LookupBatchMem", engBatch(plane.StackConfig{}, &cachesim.Uncached{})},
		{"Engine.LookupBatchCached", engBatch(cached, cachesim.Null{})},
		{"Engine.LookupBatchCachedMem", engBatch(cached, &cachesim.Uncached{})},
	}
	for _, su := range sharded {
		su := su
		batches = append(batches, batch{su.name + ".LookupBatch", func(ks []keys.Value) []Result {
			return results(su.LookupBatch(ks))
		}})
	}
	for _, st := range plane.Matrix() {
		st := st
		batches = append(batches, batch{"Engine.LookupBatchStack/" + st.String(), engBatch(st, cachesim.Null{})})
		for _, su := range sharded {
			su := su
			batches = append(batches, batch{su.name + ".LookupBatchStack/" + st.String(), func(ks []keys.Value) []Result {
				return results(su.LookupBatchStack(st, ks, nil))
			}})
		}
	}
	for _, tc := range batches {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			res := tc.batch(corpus)
			if len(res) != len(corpus) {
				t.Fatalf("batch returned %d results for %d keys", len(res), len(corpus))
			}
			for i, k := range corpus {
				want, wantOK := oracle.Lookup(k)
				if res[i].Matched != wantOK || (wantOK && res[i].Action != want) {
					t.Fatalf("key %v: (%d,%v), oracle (%d,%v)", k, res[i].Action, res[i].Matched, want, wantOK)
				}
			}
		})
	}
}
