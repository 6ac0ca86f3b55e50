package core

import (
	"math/rand"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
	"neurolpm/internal/workload"
)

// cachedStack is the production cached configuration: compiled inference
// behind the result-cache probe.
var cachedStack = plane.StackConfig{Cached: true}

// cachedEngine builds a quick engine plus a private cache for the test.
func cachedEngine(t testing.TB, cfg Config) (*Engine, *lpm.RuleSet, *lcache.Cache) {
	t.Helper()
	rs := randomRuleSet(t, 32, 3000, 11)
	e, err := Build(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, rs, lcache.New(256 << 10)
}

func TestLookupCachedMatchesUncached(t *testing.T) {
	for name, cfg := range map[string]Config{"bucketized": quickBucketed(), "sram": quickSRAMOnly()} {
		t.Run(name, func(t *testing.T) {
			e, rs, c := cachedEngine(t, cfg)
			rng := rand.New(rand.NewSource(3))
			hot := make([]keys.Value, 32)
			for i := range hot {
				hot[i] = randomKey(rng, rs.Width)
			}
			for q := 0; q < 4096; q++ {
				var k keys.Value
				if q%4 != 0 { // 3/4 hot repeats, 1/4 cold
					k = hot[rng.Intn(len(hot))]
				} else {
					k = randomKey(rng, rs.Width)
				}
				wantA, wantOK := e.Lookup(k)
				gotA, gotOK, _ := e.LookupStack(cachedStack, k, c)
				if gotOK != wantOK || (gotOK && gotA != wantA) {
					t.Fatalf("key %v: cached (%d,%v), uncached (%d,%v)", k, gotA, gotOK, wantA, wantOK)
				}
			}
		})
	}
}

func TestLookupCachedSecondProbeHits(t *testing.T) {
	e, rs, c := cachedEngine(t, quickBucketed())
	rng := rand.New(rand.NewSource(5))
	k := randomKey(rng, rs.Width)
	if _, _, o := e.LookupStack(cachedStack, k, c); o != lcache.Miss {
		t.Fatalf("first probe = %v, want miss", o)
	}
	if _, _, o := e.LookupStack(cachedStack, k, c); o != lcache.Hit {
		t.Fatalf("second probe = %v, want hit", o)
	}
}

func TestLookupBatchCachedMatchesUncached(t *testing.T) {
	e, rs, c := cachedEngine(t, quickBucketed())
	rng := rand.New(rand.NewSource(9))
	hot := make([]keys.Value, 64)
	for i := range hot {
		hot[i] = randomKey(rng, rs.Width)
	}
	batch := make([]keys.Value, 256)
	var cached, plain []BatchResult
	epoch := e.CacheEpoch().Load()
	for round := 0; round < 32; round++ {
		for i := range batch {
			if i%3 == 0 {
				batch[i] = randomKey(rng, rs.Width)
			} else {
				batch[i] = hot[rng.Intn(len(hot))]
			}
		}
		plain = e.LookupBatch(batch, plain)
		cached = e.LookupBatchStack(cachedStack, batch, cached, cachesim.Null{}, c, epoch)
		for i := range batch {
			if cached[i] != plain[i] {
				t.Fatalf("round %d key %v: cached %+v, uncached %+v", round, batch[i], cached[i], plain[i])
			}
		}
	}
}

func TestLookupBatchCachedNilCacheEqualsUncached(t *testing.T) {
	e, rs, _ := cachedEngine(t, quickBucketed())
	rng := rand.New(rand.NewSource(13))
	batch := make([]keys.Value, 512)
	for i := range batch {
		batch[i] = randomKey(rng, rs.Width)
	}
	plain := e.LookupBatch(batch, nil)
	viaNil := e.LookupBatchStack(cachedStack, batch, nil, cachesim.Null{}, nil, e.CacheEpoch().Load())
	for i := range batch {
		if viaNil[i] != plain[i] {
			t.Fatalf("key %v: nil-cache path %+v, uncached %+v", batch[i], viaNil[i], plain[i])
		}
	}
}

// liveKeyOf returns a key matched by rule idx right now (its prefix) — handy
// for pinning cache staleness around that rule's mutations.
func liveKeyOf(rs *lpm.RuleSet, idx int) keys.Value { return rs.Rules[idx].Prefix }

// TestDeleteBumpsCacheEpoch is the regression pin for the no-retrain delete
// path: a cached action surviving a Delete would be a silent correctness bug
// (ISSUE 5). The cached answer must track the tombstone immediately.
func TestDeleteBumpsCacheEpoch(t *testing.T) {
	e, rs, c := cachedEngine(t, quickBucketed())
	// Pick a rule whose prefix it uniquely owns right now (matched == true
	// and the resolved action equals the rule's).
	var k keys.Value
	ruleIdx := -1
	for i, r := range rs.Rules {
		a, ok := e.Lookup(r.Prefix)
		if ok && a == r.Action {
			k, ruleIdx = liveKeyOf(rs, i), i
			break
		}
	}
	if ruleIdx < 0 {
		t.Fatal("no directly-resolvable rule found")
	}
	before := e.CacheEpoch().Load()
	if _, _, o := e.LookupStack(cachedStack, k, c); o != lcache.Miss {
		t.Fatalf("priming probe = %v, want miss", o)
	}
	r := rs.Rules[ruleIdx]
	if err := e.Delete(r.Prefix, r.Len); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheEpoch().Load(); after != before+1 {
		t.Fatalf("Delete did not bump the cache epoch: %d → %d", before, after)
	}
	wantA, wantOK := e.Lookup(k)
	gotA, gotOK, o := e.LookupStack(cachedStack, k, c)
	if o == lcache.Hit {
		t.Fatal("post-delete probe hit the cache (stale entry served)")
	}
	if gotOK != wantOK || (gotOK && gotA != wantA) {
		t.Fatalf("post-delete cached answer (%d,%v) != engine (%d,%v)", gotA, gotOK, wantA, wantOK)
	}
}

// TestModifyActionBumpsCacheEpoch pins the no-retrain action-rewrite path
// the same way: the cached action must die with the rewrite.
func TestModifyActionBumpsCacheEpoch(t *testing.T) {
	e, rs, c := cachedEngine(t, quickBucketed())
	r := rs.Rules[0]
	k := r.Prefix
	before := e.CacheEpoch().Load()
	e.LookupStack(cachedStack, k, c) // prime
	if err := e.ModifyAction(r.Prefix, r.Len, 999_999); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheEpoch().Load(); after != before+1 {
		t.Fatalf("ModifyAction did not bump the cache epoch: %d → %d", before, after)
	}
	wantA, wantOK := e.Lookup(k)
	gotA, gotOK, o := e.LookupStack(cachedStack, k, c)
	if o == lcache.Hit {
		t.Fatal("post-modify probe hit the cache (stale action served)")
	}
	if gotOK != wantOK || (gotOK && gotA != wantA) {
		t.Fatalf("post-modify cached answer (%d,%v) != engine (%d,%v)", gotA, gotOK, wantA, wantOK)
	}
}

// TestUpdatableMutationsBumpEpoch covers the delta-overlay paths and the
// commit swap: every route through which an Updatable changes answers must
// advance the shared epoch, and InsertBatch must carry the same counter into
// the rebuilt engine (a reset would resurrect stale entries by collision).
func TestUpdatableMutationsBumpEpoch(t *testing.T) {
	e, rs, c := cachedEngine(t, quickBucketed())
	u := NewUpdatable(e, 100)
	ep := u.CacheEpoch()
	width := rs.Width

	fresh := lpm.Rule{Prefix: keys.FromUint64(0xABCD0000), Len: 32, Action: 42}
	before := ep.Load()
	if err := u.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	if got := ep.Load(); got != before+1 {
		t.Fatalf("delta Insert: epoch %d → %d, want +1", before, got)
	}
	// The inserted rule must be served correctly through the cached path
	// even though its key may have been cached negative before.
	if a, ok, _ := u.LookupStack(cachedStack, fresh.Prefix, c); !ok || a != 42 {
		t.Fatalf("cached lookup after delta insert = (%d,%v), want (42,true)", a, ok)
	}

	before = ep.Load()
	if err := u.ModifyAction(fresh.Prefix, fresh.Len, 43); err != nil {
		t.Fatal(err)
	}
	if got := ep.Load(); got != before+1 {
		t.Fatalf("delta ModifyAction: epoch %d → %d, want +1", before, got)
	}
	if a, ok, _ := u.LookupStack(cachedStack, fresh.Prefix, c); !ok || a != 43 {
		t.Fatalf("cached lookup after delta modify = (%d,%v), want (43,true)", a, ok)
	}

	before = ep.Load()
	if err := u.Delete(fresh.Prefix, fresh.Len); err != nil {
		t.Fatal(err)
	}
	if got := ep.Load(); got != before+1 {
		t.Fatalf("delta Delete: epoch %d → %d, want +1", before, got)
	}

	// Commit: pointer identity across the swap, bump after.
	if err := u.Insert(lpm.Rule{Prefix: keys.FromUint64(0x12340000), Len: 32, Action: 7}); err != nil {
		t.Fatal(err)
	}
	before = ep.Load()
	oldEngine := u.Engine()
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	if u.Engine() == oldEngine {
		t.Fatal("commit did not swap the engine")
	}
	if u.CacheEpoch() != ep {
		t.Fatal("commit broke the epoch lineage (new engine has a different counter)")
	}
	if got := ep.Load(); got != before+1 {
		t.Fatalf("Commit: epoch %d → %d, want +1", before, got)
	}
	if a, ok, _ := u.LookupStack(cachedStack, keys.FromUint64(0x12340000), c); !ok || a != 7 {
		t.Fatalf("cached lookup after commit = (%d,%v), want (7,true)", a, ok)
	}
	_ = width
}

// The cached-batch micro-bench family: CI's bench-smoke runs these; the
// Zipf-vs-uncached ratio is the headline the E25 experiment quantifies.
func benchBatchKeys(rng *rand.Rand, n int, hot []keys.Value, hotFrac float64) []keys.Value {
	ks := make([]keys.Value, n)
	for i := range ks {
		if rng.Float64() < hotFrac {
			ks[i] = hot[rng.Intn(len(hot))]
		} else {
			ks[i] = randomKey(rng, 32)
		}
	}
	return ks
}

func benchCachedSetup(b *testing.B, hotFrac float64) (*Engine, []keys.Value, *lcache.Cache) {
	b.Helper()
	rs := randomRuleSet(b, 32, 20000, 42)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	hot := make([]keys.Value, 256)
	for i := range hot {
		hot[i] = randomKey(rng, 32)
	}
	return e, benchBatchKeys(rng, 1<<14, hot, hotFrac), lcache.New(64 << 10)
}

func BenchmarkBatchUncachedCompiled(b *testing.B) {
	e, ks, _ := benchCachedSetup(b, 0.9)
	var out []BatchResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		lo := (i * 256) % (len(ks) - 256)
		out = e.LookupBatch(ks[lo:lo+256], out)
	}
}

func BenchmarkBatchCachedZipfHot(b *testing.B) {
	e, ks, c := benchCachedSetup(b, 0.9)
	epoch := e.CacheEpoch().Load()
	var out []BatchResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		lo := (i * 256) % (len(ks) - 256)
		out = e.LookupBatchStack(cachedStack, ks[lo:lo+256], out, cachesim.Null{}, c, epoch)
	}
}

func BenchmarkBatchCachedUniform(b *testing.B) {
	e, ks, c := benchCachedSetup(b, 0)
	epoch := e.CacheEpoch().Load()
	var out []BatchResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		lo := (i * 256) % (len(ks) - 256)
		out = e.LookupBatchStack(cachedStack, ks[lo:lo+256], out, cachesim.Null{}, c, epoch)
	}
}

func BenchmarkBatchCacheOff(b *testing.B) {
	e, ks, _ := benchCachedSetup(b, 0.9)
	epoch := e.CacheEpoch().Load()
	var out []BatchResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		lo := (i * 256) % (len(ks) - 256)
		out = e.LookupBatchStack(cachedStack, ks[lo:lo+256], out, cachesim.Null{}, nil, epoch)
	}
}

// BenchmarkBatchRipe870K is the batch kernel at the repository benchmark's
// scale and on its inputs (benchmark/inputs.go: 870 K ripe rules seed 1, the
// Zipf+locality trace on seed+1, the uniform one on seed+2): LookupBatch(256)
// with every answer held against the trie oracle's inside the loop, so a
// kernel that got faster by getting an answer wrong fails here.
func BenchmarkBatchRipe870K(b *testing.B) {
	const seed, nKeys, block = 1, 1 << 20, 256
	rs, err := workload.Generate(workload.RIPE(), 870000, seed)
	if err != nil {
		b.Fatal(err)
	}
	e, err := Build(rs, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	oracle := lpm.NewTrieMatcher(rs)
	zipf, err := workload.GenerateTrace(rs, workload.DefaultTrace(nKeys, seed+1))
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		trace []keys.Value
	}{{"zipf", zipf}, {"uniform", workload.UniformTrace(32, nKeys, seed+2)}} {
		want := make([]BatchResult, len(tc.trace))
		for i, k := range tc.trace {
			want[i].Action, want[i].Matched = oracle.Lookup(k)
		}
		b.Run(tc.name, func(b *testing.B) {
			var out []BatchResult
			b.ReportAllocs()
			b.ResetTimer()
			for i, pos := 0, 0; i < b.N; i, pos = i+block, pos+block {
				if pos+block > len(tc.trace) {
					pos = 0
				}
				out = e.LookupBatch(tc.trace[pos:pos+block], out)
				for j, r := range out {
					if r != want[pos+j] {
						b.Fatalf("key %v: engine %+v, oracle %+v", tc.trace[pos+j], r, want[pos+j])
					}
				}
			}
		})
	}
}
