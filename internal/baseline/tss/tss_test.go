package tss

import (
	"math/rand"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/workload"
)

func build(t testing.TB, p workload.Profile, n int, seed int64) (*lpm.RuleSet, *Engine) {
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

func TestMatchesOracle(t *testing.T) {
	rs, e := build(t, workload.RIPE(), 2000, 1)
	oracle := lpm.NewTrieMatcher(rs)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 10000; q++ {
		k := keys.FromUint64(uint64(rng.Uint32()))
		got, gotOK := e.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v: tss (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
}

func TestProbesBoundedByTables(t *testing.T) {
	rs, e := build(t, workload.RIPE(), 2000, 3)
	_ = rs
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 2000; q++ {
		_, _, probes := e.LookupMem(keys.FromUint64(uint64(rng.Uint32())), cachesim.Null{})
		if probes > e.NumTables() {
			t.Fatalf("probes %d exceed table count %d", probes, e.NumTables())
		}
	}
}

// TestTableCountSensitivity reproduces the §3.3 observation: string-matching
// rule-sets need many more tables than routing ones.
func TestTableCountSensitivity(t *testing.T) {
	_, routing := build(t, workload.RIPE(), 3000, 5)
	_, strings := build(t, workload.Snort(), 3000, 6)
	if routing.NumTables() < 15 || routing.NumTables() > 32 {
		t.Fatalf("routing tables = %d, want ~20-24", routing.NumTables())
	}
	if strings.NumTables() < 26 {
		t.Fatalf("string-matching tables = %d, want > 26 (§3.3)", strings.NumTables())
	}
}

func TestLongestWins(t *testing.T) {
	rules := []lpm.Rule{
		{Prefix: keys.FromUint64(0x80), Len: 1, Action: 1},
		{Prefix: keys.FromUint64(0xF0), Len: 4, Action: 2},
	}
	rs, err := lpm.NewRuleSet(8, rules)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := e.Lookup(keys.FromUint64(0xF5))
	if !ok || got != 2 {
		t.Fatalf("lookup = %d,%v, want 2", got, ok)
	}
	// A longest-first hit stops probing.
	_, _, probes := e.LookupMem(keys.FromUint64(0xF5), cachesim.Null{})
	if probes != 1 {
		t.Fatalf("probes = %d, want 1", probes)
	}
}

func TestNoMatch(t *testing.T) {
	rs, err := lpm.NewRuleSet(8, []lpm.Rule{{Prefix: keys.FromUint64(0x80), Len: 1, Action: 1}})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(keys.FromUint64(0x10)); ok {
		t.Fatal("matched nothing")
	}
}

func TestDRAMBytesPositive(t *testing.T) {
	_, e := build(t, workload.RIPE(), 1000, 7)
	total := uint64(0)
	for _, s := range e.slots {
		total += s * slotBytes
	}
	if total == 0 {
		t.Fatal("no DRAM footprint")
	}
}

func BenchmarkLookup(b *testing.B) {
	_, e := build(b, workload.RIPE(), 10000, 8)
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
