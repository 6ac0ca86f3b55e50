package planetest

import (
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/workload"
)

// TestLookupEntryPointsEquivalent drives every exported lookup entry point —
// single-key and batch, core and shard — over one
// shared workload-calibrated corpus and asserts each
// answers exactly what the trie oracle answers, misses included. This is the
// table-driven face of the equivalence contract the fuzz target probes
// adversarially: adding a lookup entry point means adding a row here, not a
// new harness.
//
// Rows are named "<fixture>.<entry point>":
//
//	Engine            core.Build, the library facade
//	Sharded           shard.BuildUpdatable at one shard, the degenerate case
//	                  (neurolpm.NewUpdatable)
//	ShardedUpdatable  shard.BuildUpdatable at four shards
//
// Each exported entry point of the two types has the row that bears its
// name, at every count of ShardCounts.
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
	type shardedFixture struct {
		name string
		*shard.ShardedUpdatable
	}
	sharded := []shardedFixture{{name: "Sharded"}, {name: "ShardedUpdatable"}}
	for i, n := range ShardCounts {
		su, err := shard.BuildUpdatable(rs, cfg, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer su.Close()
		sharded[i].ShardedUpdatable = su
	}

	type single struct {
		name string
		look func(k keys.Value) (uint64, bool)
	}
	singles := []single{
		{"Engine.Lookup", eng.Lookup},
		{"Engine.LookupMem", func(k keys.Value) (uint64, bool) {
			tr := eng.LookupMem(k, &cachesim.Uncached{})
			return tr.Action, tr.Matched
		}},
		{"Engine.LookupRecord", func(k keys.Value) (uint64, bool) {
			tr, _ := eng.LookupRecord(k)
			return tr.Action, tr.Matched
		}},
	}
	for _, su := range sharded {
		singles = append(singles, single{su.name + ".Lookup", su.Lookup})
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
	results := func(res []core.BatchResult) []Result { // shard.Result is the same type
		out := make([]Result, len(res))
		for i, r := range res {
			out[i] = Result{r.Action, r.Matched}
		}
		return out
	}
	// Batch rows that take a result slice hand in a stale one with room to
	// spare, so the reuse path is the one checked.
	stale := func(n int) []core.BatchResult { return make([]core.BatchResult, n, 2*n) }
	batches := []batch{
		{"Engine.LookupBatch", func(ks []keys.Value) []Result { return results(eng.LookupBatch(ks, stale(len(ks)))) }},
	}
	for _, su := range sharded {
		su := su
		batches = append(batches,
			batch{su.name + ".LookupBatch", func(ks []keys.Value) []Result { return results(su.LookupBatch(ks)) }},
			batch{su.name + ".LookupBatchInto", func(ks []keys.Value) []Result {
				return results(su.LookupBatchInto(ks, stale(len(ks))))
			}})
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
