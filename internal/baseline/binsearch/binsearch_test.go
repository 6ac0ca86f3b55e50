package binsearch

import (
	"math/bits"
	"math/rand"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
	"neurolpm/internal/workload"
)

func build(t testing.TB, n int, seed int64) (*lpm.RuleSet, *Engine) {
	t.Helper()
	rs, err := workload.Generate(workload.RIPE(), n, seed)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := ranges.Convert(rs)
	if err != nil {
		t.Fatal(err)
	}
	return rs, FromArray(arr)
}

func TestMatchesOracle(t *testing.T) {
	rs, e := build(t, 2000, 1)
	oracle := lpm.NewTrieMatcher(rs)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 10000; q++ {
		k := keys.FromUint64(uint64(rng.Uint32()))
		got, gotOK := e.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v: binsearch (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
}

func TestProbeCountLogarithmic(t *testing.T) {
	_, e := build(t, 4000, 3)
	bound := bits.Len(uint(e.arr.Len() - 1)) // ⌈log₂ n⌉
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 5000; q++ {
		_, _, probes := e.LookupMem(keys.FromUint64(uint64(rng.Uint32())), cachesim.Null{})
		if probes > bound {
			t.Fatalf("probes %d exceed ⌈log₂ n⌉ = %d", probes, bound)
		}
	}
}

func TestMemSeesEveryProbe(t *testing.T) {
	_, e := build(t, 1000, 5)
	u := &cachesim.Uncached{}
	_, _, probes := e.LookupMem(keys.FromUint64(0x0A000001), u)
	if int(u.Stats().Accesses) != probes {
		t.Fatalf("mem saw %d accesses for %d probes", u.Stats().Accesses, probes)
	}
	if u.Stats().Bytes != uint64(probes*e.arr.BytesPerEntry()) {
		t.Fatalf("bytes %d for %d 4-byte probes", u.Stats().Bytes, probes)
	}
}

func TestFromArraySharesRanges(t *testing.T) {
	rs, e := build(t, 500, 6)
	e2 := FromArray(e.arr)
	rng := rand.New(rand.NewSource(7))
	_ = rs
	for q := 0; q < 1000; q++ {
		k := keys.FromUint64(uint64(rng.Uint32()))
		a1, ok1 := e.Lookup(k)
		a2, ok2 := e2.Lookup(k)
		if a1 != a2 || ok1 != ok2 {
			t.Fatalf("FromArray disagrees at %v", k)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	_, e := build(b, 10000, 8)
	rng := rand.New(rand.NewSource(1))
	qs := make([]keys.Value, 1024)
	for i := range qs {
		qs[i] = keys.FromUint64(uint64(rng.Uint32()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Lookup(qs[i&1023])
	}
}
