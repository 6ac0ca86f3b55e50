package treebitmap

import (
	"math/rand"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/workload"
)

func buildFromProfile(t testing.TB, p workload.Profile, n int, seed int64) (*lpm.RuleSet, *Engine) {
	t.Helper()
	rs, err := workload.Generate(p, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	return rs, e
}

func TestMatchesOracle32(t *testing.T) {
	rs, e := buildFromProfile(t, workload.RIPE(), 3000, 1)
	oracle := lpm.NewTrieMatcher(rs)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 20000; q++ {
		k := keys.FromUint64(uint64(rng.Uint32()))
		got, gotOK := e.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v: treebitmap (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
}

func TestMatchesOracle48(t *testing.T) {
	rs, e := buildFromProfile(t, workload.Snort(), 1500, 3)
	oracle := lpm.NewTrieMatcher(rs)
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 10000; q++ {
		k := keys.FromUint64(rng.Uint64() & (1<<48 - 1))
		got, gotOK := e.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v: treebitmap (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
}

func TestMatchesOracle128(t *testing.T) {
	rs, e := buildFromProfile(t, workload.IPv6(), 800, 5)
	oracle := lpm.NewTrieMatcher(rs)
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 5000; q++ {
		k := keys.FromParts(rng.Uint64(), rng.Uint64())
		got, gotOK := e.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v: treebitmap (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
}

func TestMatchesOracleAtBoundaries(t *testing.T) {
	rs, e := buildFromProfile(t, workload.Profiles()["stanford"], 800, 7)
	oracle := lpm.NewTrieMatcher(rs)
	for _, r := range rs.Rules {
		for _, k := range []keys.Value{r.Low(32), r.High(32)} {
			got, gotOK := e.Lookup(k)
			want, wantOK := oracle.Lookup(k)
			if gotOK != wantOK || (gotOK && got != want) {
				t.Fatalf("key %v: treebitmap (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
			}
		}
	}
}

func TestRejectsNonStrideWidth(t *testing.T) {
	rs, err := lpm.NewRuleSet(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(rs); err == nil {
		t.Fatal("width 20 accepted")
	}
}

func TestDefaultRuleAtRoot(t *testing.T) {
	rs, err := lpm.NewRuleSet(32, []lpm.Rule{{Len: 0, Action: 42}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	u := &cachesim.Uncached{}
	got, ok := e.LookupMem(keys.FromUint64(0xDEADBEEF), u)
	if !ok || got != 42 {
		t.Fatalf("default rule: %d,%v", got, ok)
	}
	if u.Stats().Accesses != 0 {
		t.Fatalf("root-only lookup cost %d DRAM accesses", u.Stats().Accesses)
	}
}

func TestAccessCountBoundedByDepth(t *testing.T) {
	rs, e := buildFromProfile(t, workload.RIPE(), 2000, 8)
	_ = rs
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 5000; q++ {
		u := &cachesim.Uncached{}
		e.LookupMem(keys.FromUint64(uint64(rng.Uint32())), u)
		if int(u.Stats().Accesses) > e.WorstCaseDRAMAccesses() {
			t.Fatalf("%d accesses exceed worst case %d", u.Stats().Accesses, e.WorstCaseDRAMAccesses())
		}
	}
}

func TestWorstCaseGrowsWithWidth(t *testing.T) {
	rs32, _ := lpm.NewRuleSet(32, nil)
	rs128, _ := lpm.NewRuleSet(128, nil)
	e32, err := Build(rs32)
	if err != nil {
		t.Fatal(err)
	}
	e128, err := Build(rs128)
	if err != nil {
		t.Fatal(err)
	}
	if e32.WorstCaseDRAMAccesses() != 3 {
		t.Fatalf("32-bit worst case = %d, want 3 (§10.2)", e32.WorstCaseDRAMAccesses())
	}
	if e128.WorstCaseDRAMAccesses() != 15 {
		t.Fatalf("128-bit worst case = %d, want 15", e128.WorstCaseDRAMAccesses())
	}
}

func TestChunkReadsAre64Bytes(t *testing.T) {
	rs, e := buildFromProfile(t, workload.RIPE(), 1000, 10)
	_ = rs
	u := &cachesim.Uncached{}
	rng := rand.New(rand.NewSource(11))
	n := uint64(0)
	for q := 0; q < 1000; q++ {
		e.LookupMem(keys.FromUint64(uint64(rng.Uint32())), u)
		n = u.Stats().Accesses
	}
	if n == 0 {
		t.Skip("no DRAM accesses observed")
	}
	if got := u.Stats().Bytes; got != n*chunkBytes {
		t.Fatalf("bytes %d for %d chunk reads, want %d", got, n, n*chunkBytes)
	}
}

// chunkReads records the address of every read.
type chunkReads []uint64

func (r *chunkReads) Read(addr uint64, _ int) { *r = append(*r, addr) }

// TestDRAMBytesMatchNodeCount: the off-chip footprint is every chunk but the
// root's, so every read a lookup issues is one of the len(nodes)−1 non-root
// chunks.
func TestDRAMBytesMatchNodeCount(t *testing.T) {
	_, e := buildFromProfile(t, workload.RIPE(), 1000, 12)
	var reads chunkReads
	rng := rand.New(rand.NewSource(12))
	for q := 0; q < 1000; q++ {
		e.LookupMem(keys.FromUint64(uint64(rng.Uint32())), &reads)
	}
	if len(reads) == 0 {
		t.Fatal("no DRAM reads")
	}
	for _, a := range reads {
		if a%chunkBytes != 0 || a < chunkBytes || a >= uint64(len(e.nodes))*chunkBytes {
			t.Fatalf("read at %d outside the %d non-root chunks", a, len(e.nodes)-1)
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	_, e := buildFromProfile(b, workload.RIPE(), 10000, 13)
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
