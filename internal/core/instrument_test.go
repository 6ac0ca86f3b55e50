package core

import (
	"math/rand"
	"sync"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/plane"
	"neurolpm/internal/telemetry"
)

// TestBucketFetchInvariant drives a bucketized engine and asserts the §7
// invariant as the telemetry layer reports it: exactly one DRAM bucket
// fetch per bucketized lookup, so the live gauge reads exactly 1.0.
func TestBucketFetchInvariant(t *testing.T) {
	rs := randomRuleSet(t, 32, 400, 7)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}

	fetches := telemetry.Default.Counter("neurolpm_bucket_fetches_total", "")
	bucketized := telemetry.Default.Counter("neurolpm_bucketized_lookups_total", "")
	f0, b0 := fetches.Load(), bucketized.Load()

	const n = 5000
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		e.Lookup(randomKey(rng, 32))
	}

	fd, bd := fetches.Load()-f0, bucketized.Load()-b0
	if bd != n {
		t.Fatalf("bucketized lookups delta = %d, want %d", bd, n)
	}
	if fd != n {
		t.Fatalf("bucket fetches delta = %d, want %d (§7: exactly one per query)", fd, n)
	}

	// The live gauge must read exactly 1.0 — every bucketized lookup this
	// process ever served did exactly one fetch.
	snap := telemetry.Default.Snapshot()
	if g := snap["neurolpm_bucket_fetches_per_query"]; g != 1.0 {
		t.Fatalf("neurolpm_bucket_fetches_per_query = %v, want exactly 1.0", g)
	}
}

// TestSRAMOnlyNoFetches checks the complementary invariant: the SRAM-only
// design never touches the bucket path.
func TestSRAMOnlyNoFetches(t *testing.T) {
	rs := randomRuleSet(t, 32, 300, 9)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	fetches := telemetry.Default.Counter("neurolpm_bucket_fetches_total", "")
	f0 := fetches.Load()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		e.Lookup(randomKey(rng, 32))
	}
	if d := fetches.Load() - f0; d != 0 {
		t.Fatalf("SRAM-only engine issued %d bucket fetches", d)
	}
}

// TestLookupPathsAgree pins the satellite requirement that Lookup,
// LookupMem and LookupSpan share one implementation: identical results and
// identical per-query statistics for the same key.
func TestLookupPathsAgree(t *testing.T) {
	rs := randomRuleSet(t, 32, 500, 21)
	for name, cfg := range map[string]Config{"sram": quickSRAMOnly(), "bucketized": quickBucketed()} {
		e, err := Build(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			k := randomKey(rng, 32)
			trMem := e.LookupMem(k, cachesim.Null{})
			trSpan, sp := e.LookupSpan(plane.Compiled, k, cachesim.Null{})
			action, ok := e.Lookup(k)
			if trMem != trSpan {
				t.Fatalf("%s: LookupMem %+v != LookupSpan %+v", name, trMem, trSpan)
			}
			if ok != trMem.Matched || (ok && action != trMem.Action) {
				t.Fatalf("%s: Lookup (%d,%v) disagrees with trace (%d,%v)",
					name, action, ok, trMem.Action, trMem.Matched)
			}
			if sp == nil || sp.TotalNs <= 0 {
				t.Fatalf("%s: span missing timing", name)
			}
			wantStages := 2
			if trMem.BucketRead {
				wantStages = 3
			}
			if len(sp.Stages) != wantStages {
				t.Fatalf("%s: span has %d stages, want %d: %+v", name, len(sp.Stages), wantStages, sp.Stages)
			}
		}
	}
}

// TestConcurrentLookups exercises the instrumented hot path from many
// goroutines (run under -race in CI): the engine is read-only at query time
// and the telemetry layer is lock-free, so parallel lookups must be safe
// and must not lose counter updates.
func TestConcurrentLookups(t *testing.T) {
	rs := randomRuleSet(t, 32, 400, 13)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	lookups := telemetry.Default.Counter("neurolpm_lookups_total", "")
	l0 := lookups.Load()

	const workers, per = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				e.Lookup(randomKey(rng, 32))
			}
		}(int64(w))
	}
	wg.Wait()
	if d := lookups.Load() - l0; d != workers*per {
		t.Fatalf("lookup counter delta = %d, want %d (lost updates)", d, workers*per)
	}
}

// resolve answers a range index from its record, for the baselines below.
func (e *Engine) resolve(rangeIdx int) (uint64, bool) {
	return e.rec.open(rangeIdx / e.rec.k).resolve(rangeIdx % e.rec.k)
}

// lookupBaseline is today's query path stripped of every telemetry update —
// an idealized floor — so Instrumented−Baseline measures the raw cost of the
// always-on counters. It must mirror lookup()'s arithmetic.
func (e *Engine) lookupBaseline(k keys.Value) (uint64, bool) {
	p := e.model.Predict(k)
	var rangeIdx int
	if e.dir == nil {
		rangeIdx, _ = e.model.Search(e.ra, k, p)
	} else {
		b, _ := e.model.Search(e.dir, k, p)
		rangeIdx, _ = e.dir.Search(b, k)
	}
	return e.resolve(rangeIdx)
}

// benchSink defeats dead-code elimination in lookupSeed.
var benchSink uint64

// lookupSeed replicates the seed LookupMem arithmetic — which predicted
// TWICE (once for the trace, once inside Model.Lookup) and computed the DRAM
// address — without any telemetry. Instrumented vs Seed is the acceptance
// comparison: the PR must hold the public Lookup within 2% of the seed.
func (e *Engine) lookupSeed(k keys.Value) (uint64, bool) {
	p := e.model.Predict(k)
	benchSink += uint64(p.Index)
	var rangeIdx int
	if e.dir == nil {
		rangeIdx, _ = e.model.Search(e.ra, k, e.model.Predict(k))
	} else {
		b, _ := e.model.Search(e.dir, k, e.model.Predict(k))
		eb := uint64(e.dir.Array().BytesPerEntry())
		benchSink += uint64(b)*uint64(e.dir.K)*eb + eb
		rangeIdx, _ = e.dir.Search(b, k)
	}
	return e.resolve(rangeIdx)
}

func benchEngine(b *testing.B, cfg Config) (*Engine, []keys.Value) {
	b.Helper()
	rs := randomRuleSet(b, 32, 20000, 42)
	e, err := Build(rs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	keysArr := make([]keys.Value, 1<<14)
	for i := range keysArr {
		keysArr[i] = randomKey(rng, 32)
	}
	return e, keysArr
}

// The instrumented/baseline benchmark pair: CI compares these to hold the
// always-on telemetry within noise (≤2%) of the seed lookup path. The
// baseline performs no telemetry at all and even skips the DRAMAddr address
// arithmetic, so the measured delta upper-bounds the instrumentation cost.
func BenchmarkLookupInstrumented(b *testing.B) {
	e, ks := benchEngine(b, quickBucketed())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Lookup(ks[i&(1<<14-1)])
	}
}

func BenchmarkLookupBaseline(b *testing.B) {
	e, ks := benchEngine(b, quickBucketed())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.lookupBaseline(ks[i&(1<<14-1)])
	}
}

func BenchmarkLookupInstrumentedSRAMOnly(b *testing.B) {
	e, ks := benchEngine(b, quickSRAMOnly())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Lookup(ks[i&(1<<14-1)])
	}
}

func BenchmarkLookupBaselineSRAMOnly(b *testing.B) {
	e, ks := benchEngine(b, quickSRAMOnly())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.lookupBaseline(ks[i&(1<<14-1)])
	}
}

func BenchmarkLookupSeed(b *testing.B) {
	e, ks := benchEngine(b, quickBucketed())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.lookupSeed(ks[i&(1<<14-1)])
	}
}

func BenchmarkLookupSeedSRAMOnly(b *testing.B) {
	e, ks := benchEngine(b, quickSRAMOnly())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.lookupSeed(ks[i&(1<<14-1)])
	}
}
