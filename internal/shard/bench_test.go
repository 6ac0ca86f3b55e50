package shard

import (
	"runtime"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/workload"
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

// BenchmarkBuildUpdatable is lpmserve's start-up build on the repository
// benchmark's rules: 870 K ripe rules (seed 3) partitioned into four shards,
// one engine trained per shard. Run with -benchmem. It also reports the live
// heap the built updatable retains beyond the rule-set, which its shards
// share rather than copy, as retained_B/rule, measured outside the timer. The /metrics gauges hold the
// last updatable built until the next replaces it, so a four-shard build of
// 64 rules first lets go of an earlier run's, and each build lets go of the
// one before.
func BenchmarkBuildUpdatable(b *testing.B) {
	rs, err := workload.Generate(workload.RIPE(), 870000, 3)
	if err != nil {
		b.Fatal(err)
	}
	liveHeap := func() float64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return float64(m.HeapAlloc)
	}
	if _, err := BuildUpdatable(randomRuleSet(b, 32, 64, 7), core.DefaultConfig(), 4, 0); err != nil {
		b.Fatal(err)
	}
	base, retained := liveHeap(), 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := BuildUpdatable(rs, core.DefaultConfig(), 4, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		retained = liveHeap() - base
		runtime.KeepAlive(sh)
		b.StartTimer()
	}
	b.ReportMetric(retained/float64(rs.Len()), "retained_B/rule")
}
