package shard

import (
	"math/rand"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
)

func quickModel() rqrmi.Config {
	cfg := rqrmi.DefaultConfig()
	cfg.StageWidths = []int{1, 2, 8}
	return cfg
}

func quickSRAMOnly() core.Config { return core.Config{Model: quickModel()} }
func quickBucketed() core.Config { return core.Config{BucketSize: 8, Model: quickModel()} }

// randomRuleSet mirrors the generator used across the core and serve tests.
func randomRuleSet(t testing.TB, width, n int, seed int64) *lpm.RuleSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	type pl struct {
		p keys.Value
		l int
	}
	seen := map[pl]bool{}
	var rules []lpm.Rule
	for len(rules) < n {
		length := 1 + rng.Intn(width)
		prefix := keys.FromUint64(rng.Uint64() & (uint64(1)<<(width-1)<<1 - 1))
		prefix = prefix.Shr(uint(width - length)).Shl(uint(width - length))
		k := pl{prefix, length}
		if seen[k] {
			continue
		}
		seen[k] = true
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: uint64(len(rules) + 1)})
	}
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func randomKeys(width, n int, seed int64) []keys.Value {
	rng := rand.New(rand.NewSource(seed))
	mask := keys.MaxValue(width)
	out := make([]keys.Value, n)
	for i := range out {
		out[i] = keys.FromParts(rng.Uint64(), rng.Uint64()).And(mask)
	}
	return out
}

func TestBuildRejectsBadShardCounts(t *testing.T) {
	rs := randomRuleSet(t, 16, 50, 1)
	for _, n := range []int{0, -1, 3, 6, 1 << (MaxShardBits + 1)} {
		if _, err := BuildUpdatable(rs, quickSRAMOnly(), n, 0); err == nil {
			t.Errorf("BuildUpdatable accepted shard count %d", n)
		}
	}
	// More shard bits than key bits.
	rs4 := randomRuleSet(t, 4, 5, 2)
	if _, err := BuildUpdatable(rs4, quickSRAMOnly(), 16, 0); err == nil {
		t.Error("BuildUpdatable accepted 16 shards on a 4-bit domain")
	}
}

func TestShardSpanReplication(t *testing.T) {
	// A /1 rule on a 4-shard (2-bit) partition covers shards 0..1 or 2..3;
	// a /0 rule covers all; a /2+ rule exactly one.
	cases := []struct {
		r      lpm.Rule
		lo, hi int
	}{
		{lpm.Rule{Len: 0}, 0, 3},
		{lpm.Rule{Prefix: keys.FromUint64(0), Len: 1}, 0, 1},
		{lpm.Rule{Prefix: keys.FromUint64(1 << 15), Len: 1}, 2, 3},
		{lpm.Rule{Prefix: keys.FromUint64(3 << 14), Len: 2}, 3, 3},
		{lpm.Rule{Prefix: keys.FromUint64(0xABCD), Len: 16}, 2, 2},
	}
	for _, c := range cases {
		lo, hi := shardSpan(16, 2, c.r)
		if lo != c.lo || hi != c.hi {
			t.Errorf("shardSpan(%v) = [%d,%d], want [%d,%d]", c.r, lo, hi, c.lo, c.hi)
		}
	}
}

// TestShardedVsOracle is the differential core of the package: every key of
// a random stream must match the trie oracle, for both engine designs and
// several shard counts, through Lookup and LookupBatch.
func TestShardedVsOracle(t *testing.T) {
	rs := randomRuleSet(t, 32, 400, 7)
	oracle := lpm.NewTrieMatcher(rs)
	ks := randomKeys(32, 4096, 99)
	// Include every rule boundary — the adversarial points.
	for _, r := range rs.Rules {
		ks = append(ks, r.Low(32), r.High(32))
	}
	for _, cfg := range []core.Config{quickSRAMOnly(), quickBucketed()} {
		for _, n := range []int{1, 4, 8} {
			s, err := BuildUpdatable(rs, cfg, n, 0)
			if err != nil {
				t.Fatalf("BuildUpdatable(%d shards): %v", n, err)
			}
			got := s.LookupBatch(ks)
			for i, k := range ks {
				a, ok := oracle.Lookup(k)
				if got[i].Matched != ok || (ok && got[i].Action != a) {
					t.Fatalf("%d shards: batch mismatch at %v: got (%d,%v) want (%d,%v)",
						n, k, got[i].Action, got[i].Matched, a, ok)
				}
				sa, sok := s.Lookup(k)
				if sok != ok || (ok && sa != a) {
					t.Fatalf("%d shards: Lookup mismatch at %v", n, k)
				}
			}
			s.Close()
		}
	}
}

func TestEmptyShardsAnswerNoMatch(t *testing.T) {
	// All rules under prefix 0b00 → shards 1..3 of a 4-shard engine are empty.
	rules := []lpm.Rule{
		{Prefix: keys.FromUint64(0), Len: 8, Action: 1},
		{Prefix: keys.FromUint64(1 << 20), Len: 12, Action: 2},
	}
	rs, err := lpm.NewRuleSet(32, rules)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildUpdatable(rs, quickSRAMOnly(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Lookup(keys.FromUint64(0xFFFFFFFF)); ok {
		t.Error("empty shard returned a match")
	}
	if a, ok := s.Lookup(keys.FromUint64(5)); !ok || a != 1 {
		t.Errorf("populated shard: got (%d,%v), want (1,true)", a, ok)
	}
}

func TestLookupBatchPositional(t *testing.T) {
	rs := randomRuleSet(t, 32, 100, 3)
	s, err := BuildUpdatable(rs, quickSRAMOnly(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ks := randomKeys(32, 513, 5) // odd size: exercises uneven groups
	batch := s.LookupBatch(ks)
	if len(batch) != len(ks) {
		t.Fatalf("batch length %d, want %d", len(batch), len(ks))
	}
	for i, k := range ks {
		a, ok := s.Lookup(k)
		if batch[i].Matched != ok || batch[i].Action != a {
			t.Fatalf("position %d: batch (%d,%v) vs Lookup (%d,%v)",
				i, batch[i].Action, batch[i].Matched, a, ok)
		}
	}
	if got := s.LookupBatch(nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

func TestShardedVerify(t *testing.T) {
	rs := randomRuleSet(t, 16, 120, 11)
	s, err := BuildUpdatable(rs, quickBucketed(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadBalanceTelemetry(t *testing.T) {
	rs := randomRuleSet(t, 32, 100, 13)
	s, err := BuildUpdatable(rs, quickSRAMOnly(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.LookupBatch(randomKeys(32, 1024, 17))
	counts := s.loadCounts()
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 1024 {
		t.Errorf("load counts sum to %d, want 1024", total)
	}
	if ib := imbalance(counts); ib < 1 {
		t.Errorf("imbalance %f < 1", ib)
	}
}

// TestOutOfDomainKeyRoutesToLastShard: a key wider than the domain arrives
// from the wire unchecked; it must route like the engine sorts it — above
// every bound — instead of indexing past the shard table.
func TestOutOfDomainKeyRoutesToLastShard(t *testing.T) {
	rs := randomRuleSet(t, 32, 100, 3)
	k := keys.FromUint64(1<<40 | 5)
	for _, n := range []int{1, 4} {
		s, err := BuildUpdatable(rs, quickSRAMOnly(), n, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.ShardOf(k); got != n-1 {
			t.Errorf("%d shards: ShardOf(%v) = %d, want %d", n, k, got, n-1)
		}
		wantA, wantOK := s.Engine(n - 1).Lookup(k)
		if a, ok := s.Lookup(k); ok != wantOK || a != wantA {
			t.Errorf("%d shards: Lookup(%v) = (%d,%v), last shard's engine (%d,%v)", n, k, a, ok, wantA, wantOK)
		}
		if res := s.LookupBatch([]keys.Value{k}); res[0].Matched != wantOK || res[0].Action != wantA {
			t.Errorf("%d shards: LookupBatch(%v) = %+v, last shard's engine (%d,%v)", n, k, res[0], wantA, wantOK)
		}
		s.Close()
	}
}
