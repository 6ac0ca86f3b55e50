package sail

import (
	"math/rand"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/workload"
)

func buildFromProfile(t testing.TB, n int, seed int64) (*lpm.RuleSet, *Engine) {
	t.Helper()
	rs, err := workload.Generate(workload.RIPE(), n, seed)
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
	rs, e := buildFromProfile(t, 3000, 1)
	oracle := lpm.NewTrieMatcher(rs)
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 20000; q++ {
		k := keys.FromUint64(uint64(rng.Uint32()))
		got, gotOK := e.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v: sail (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
}

func TestMatchesOracleAtRuleBoundaries(t *testing.T) {
	rs, e := buildFromProfile(t, 1000, 3)
	oracle := lpm.NewTrieMatcher(rs)
	check := func(k keys.Value) {
		got, gotOK := e.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v: sail (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
	for _, r := range rs.Rules {
		check(r.Low(32))
		check(r.High(32))
		if !r.Low(32).IsZero() {
			check(r.Low(32).Dec())
		}
	}
}

func TestRejectsNon32Bit(t *testing.T) {
	rs, err := lpm.NewRuleSet(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(rs); err == nil {
		t.Fatal("64-bit rule-set accepted")
	}
}

func TestRejectsTooManyActions(t *testing.T) {
	var rules []lpm.Rule
	for i := 0; i < 300; i++ {
		rules = append(rules, lpm.Rule{
			Prefix: keys.FromUint64(uint64(i) << 16),
			Len:    16,
			Action: uint64(i), // 300 distinct actions
		})
	}
	rs, err := lpm.NewRuleSet(32, rules)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(rs); err == nil {
		t.Fatal("rule-set with >255 actions accepted")
	}
}

func TestDRAMAccessCounts(t *testing.T) {
	// Hand-built set exercising all three levels.
	rules := []lpm.Rule{
		{Prefix: keys.FromUint64(0x0A000000), Len: 8, Action: 1},  // /8: level 16
		{Prefix: keys.FromUint64(0x0A140000), Len: 16, Action: 2}, // /16: level 16
		{Prefix: keys.FromUint64(0x0A141400), Len: 24, Action: 3}, // /24: level 24
		{Prefix: keys.FromUint64(0x0A141500), Len: 24, Action: 5}, // /24 without deeper rules
		{Prefix: keys.FromUint64(0x0A141420), Len: 28, Action: 4}, // /28: level 32
	}
	rs, err := lpm.NewRuleSet(32, rules)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(rs)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		key      uint64
		accesses uint64
		action   uint64
	}{
		{0x0B000000, 0, 0}, // no match, level 16 only
		{0x0A990000, 0, 1}, // /8 match without deeper chunk: level 16
		{0x0A149900, 1, 2}, // under the /16 with a chunk: level-24 read
		{0x0A141599, 1, 5}, // /24 match with no deeper rules: level-24 read
		{0x0A141425, 2, 4}, // /28 match: pointer + level-32 reads
		{0x0A141410, 2, 3}, // /24 holding a /28: forced to level 32 anyway
	}
	for _, c := range cases {
		u := &cachesim.Uncached{}
		got, _ := e.LookupMem(keys.FromUint64(c.key), u)
		if u.Stats().Accesses != c.accesses {
			t.Errorf("key %08x: %d accesses, want %d", c.key, u.Stats().Accesses, c.accesses)
		}
		if c.action != 0 && got != c.action {
			t.Errorf("key %08x: action %d, want %d", c.key, got, c.action)
		}
	}
}

func TestWorstCaseAccessesNeverExceeded(t *testing.T) {
	rs, e := buildFromProfile(t, 2000, 4)
	_ = rs
	rng := rand.New(rand.NewSource(5))
	for q := 0; q < 5000; q++ {
		u := &cachesim.Uncached{}
		e.LookupMem(keys.FromUint64(uint64(rng.Uint32())), u)
		if int(u.Stats().Accesses) > e.WorstCaseDRAMAccesses() {
			t.Fatalf("%d accesses exceed worst case %d", u.Stats().Accesses, e.WorstCaseDRAMAccesses())
		}
	}
}

func TestStaticSRAMBytes(t *testing.T) {
	_, e := buildFromProfile(t, 100, 6)
	got := e.StaticSRAMBytes()
	// 8KB + 64KB + 128KB + 2MB = 2,297,856 bytes ≈ the paper's 2.25MB.
	want := 8*1024 + 64*1024 + 128*1024 + 2*1024*1024
	if got != want {
		t.Fatalf("static SRAM = %d, want %d", got, want)
	}
	// 2,301,952 bytes = 2.30 decimal MB ≈ the paper's "2.25MB".
	if got < 2_200_000 || got > 2_400_000 {
		t.Fatalf("static SRAM %d outside the paper's ~2.25MB", got)
	}
}

// dramBytes is the off-chip footprint of the chunked tables.
func (e *Engine) dramBytes() int {
	return len(e.n24)*chunkEntries + len(e.c24)*chunkEntries*2 + len(e.n32)*chunkEntries
}

func TestDRAMBytesGrowWithRules(t *testing.T) {
	_, small := buildFromProfile(t, 500, 7)
	_, large := buildFromProfile(t, 5000, 7)
	if large.dramBytes() <= small.dramBytes() {
		t.Fatalf("DRAM bytes did not grow: %d vs %d", small.dramBytes(), large.dramBytes())
	}
}

func BenchmarkLookup(b *testing.B) {
	_, e := buildFromProfile(b, 10000, 8)
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
