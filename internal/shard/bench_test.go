package shard

import (
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
)

// Benchmarks decompose batch throughput: engine lookup vs routed lookup vs
// the full LookupBatch machinery. Run with -bench=. -benchmem.

func benchSetup(b *testing.B, nShards int) (*core.Engine, *ShardedUpdatable, []keys.Value) {
	b.Helper()
	rs := randomRuleSet(b, 32, 4096, 7)
	eng, err := core.Build(rs, quickBucketed())
	if err != nil {
		b.Fatal(err)
	}
	sh, err := BuildUpdatable(rs, quickBucketed(), nShards, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sh.Close() })
	return eng, sh, randomKeys(32, 4096, 9)
}

func BenchmarkSingleEngineLookup(b *testing.B) {
	eng, _, ks := benchSetup(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Lookup(ks[i%len(ks)])
	}
}

func BenchmarkShardedLookup(b *testing.B) {
	_, sh, ks := benchSetup(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.Lookup(ks[i%len(ks)])
	}
}

func BenchmarkShardedLookupBatch256(b *testing.B) {
	_, sh, ks := benchSetup(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		lo := i % (len(ks) - 256)
		sh.LookupBatch(ks[lo : lo+256])
	}
}

func BenchmarkShardedLookupBatch256Scalar(b *testing.B) {
	// Contrast row: the same fan-out but per-key engine lookups inside each
	// group, isolating what the compiled batch plane adds over routing.
	_, sh, ks := benchSetup(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		lo := i % (len(ks) - 256)
		batch := ks[lo : lo+256]
		sh.lookupBatch(batch, nil, func(shard int, gk []keys.Value, res []Result) {
			e := sh.Engine(shard)
			for i, k := range gk {
				res[i].Action, res[i].Matched = e.Lookup(k)
			}
		})
	}
}

func BenchmarkSingleEngineLookupBatch256(b *testing.B) {
	// The compiled batch plane with no sharding at all: one engine, blocks
	// of 256 keys through Engine.LookupBatch.
	eng, _, ks := benchSetup(b, 4)
	var out []core.BatchResult
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		lo := i % (len(ks) - 256)
		out = eng.LookupBatch(ks[lo:lo+256], out)
	}
}

func BenchmarkShardedLookupBatch256Direct(b *testing.B) {
	// Upper bound: direct per-shard engine calls in grouped order, no
	// grouping machinery at all.
	_, sh, ks := benchSetup(b, 4)
	groups := make([][]keys.Value, sh.Shards())
	for _, k := range ks {
		s := sh.ShardOf(k)
		groups[s] = append(groups[s], k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; {
		for s, g := range groups {
			for _, k := range g {
				sh.Engine(s).Lookup(k)
				i++
			}
		}
	}
}
