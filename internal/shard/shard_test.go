package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/telemetry"
)

func quickModel() rqrmi.Config {
	cfg := rqrmi.DefaultConfig()
	cfg.StageWidths = []int{1, 2, 8}
	return cfg
}

func quickSRAMOnly() core.Config { return core.Config{Model: quickModel()} }
func quickBucketed() core.Config { return core.Config{BucketSize: 8, Model: quickModel()} }

// scrape renders the default registry as /metrics does and returns each
// series' value by its name, labels included.
func scrape() map[string]float64 {
	var b strings.Builder
	telemetry.Default.WritePrometheus(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || line[0] == '#' {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

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

// forShardCounts runs f as a subtest at each shard count the updatable's
// tests cover: one shard, the degenerate case, and four.
func forShardCounts(t *testing.T, f func(t *testing.T, n int)) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d-shards", n), func(t *testing.T) { f(t, n) })
	}
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
	for _, n := range []int{0, -1, 3, 6, 1 << (maxShardBits + 1)} {
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

// TestPartitionAllocs pins partition's allocations: the part headers, and one
// exact-size array per part that is a copy, whatever the rule count.
func TestPartitionAllocs(t *testing.T) {
	rs := randomRuleSet(t, 32, 20000, 5)
	for _, bits := range []int{0, 2, 3} {
		parts := partition(rs, bits)
		copies := 0
		for s, p := range parts {
			if len(p) != cap(p) {
				t.Errorf("%d bits: part %d has %d rules in capacity %d", bits, s, len(p), cap(p))
			}
			if _, ok := aliasAt(p, rs.Rules); !ok {
				copies++
			}
		}
		if raceEnabled {
			continue
		}
		if got, max := testing.AllocsPerRun(3, func() { partition(rs, bits) }), float64(1+copies); got > max {
			t.Errorf("%d bits: partition made %v allocations, want at most %v", bits, got, max)
		}
	}
}

// aliasAt reports whether part is a run of rules itself, not a copy, and
// where that run starts. An empty part is one.
func aliasAt(part, rules []lpm.Rule) (int, bool) {
	if len(part) == 0 {
		return 0, true
	}
	for i := range rules {
		if &rules[i] == &part[0] {
			return i, true
		}
	}
	return 0, false
}

// withoutShortRules returns rs less its rules shorter than bits.
func withoutShortRules(t *testing.T, rs *lpm.RuleSet, bits int) *lpm.RuleSet {
	t.Helper()
	long, err := lpm.NewRuleSet(rs.Width, slices.DeleteFunc(slices.Clone(rs.Rules), func(r lpm.Rule) bool { return r.Len < bits }))
	if err != nil {
		t.Fatal(err)
	}
	return long
}

// withShortRules returns rs plus a /0 rule and the /1 rule of the upper half.
func withShortRules(t *testing.T, rs *lpm.RuleSet) *lpm.RuleSet {
	t.Helper()
	rules := append(slices.Clone(rs.Rules),
		lpm.Rule{Len: 0, Action: 1000},
		lpm.Rule{Prefix: keys.FromUint64(1 << (rs.Width - 1)), Len: 1, Action: 1001})
	short, err := lpm.NewRuleSet(rs.Width, rules)
	if err != nil {
		t.Fatal(err)
	}
	return short
}

// TestPartitionSharesRuleSet: shards share the caller's rules. With no rule
// shorter than the routing bits, every part at 1, 4 and 8 shards is its run
// of rs.Rules itself, in order and with no spare capacity — at one shard the
// whole of it. With a /0 and a /1 rule, exactly the parts that receive one of
// them from an earlier shard's run are copies. And no update through an
// updatable built at one shard (neurolpm.NewUpdatable) or four writes into
// the rule-set it was built from.
func TestPartitionSharesRuleSet(t *testing.T) {
	base := randomRuleSet(t, 32, 3000, 17)
	long := withoutShortRules(t, base, 3)
	for _, bits := range []int{0, 2, 3} {
		at := 0
		for s, p := range partition(long, bits) {
			lo, ok := aliasAt(p, long.Rules)
			if !ok || len(p) > 0 && lo != at || len(p) != cap(p) {
				t.Errorf("%d bits: part %d (%d rules, capacity %d) is not rs.Rules[%d:%d:%d]",
					bits, s, len(p), cap(p), at, at+len(p), at+len(p))
			}
			at += len(p)
		}
		if at != long.Len() {
			t.Errorf("%d bits: parts hold %d rules, want %d", bits, at, long.Len())
		}
	}

	short := withShortRules(t, long)
	for _, bits := range []int{2, 3} {
		for s, p := range partition(short, bits) {
			receives := false
			for _, r := range short.Rules {
				lo, hi := shardSpan(short.Width, bits, r)
				receives = receives || r.Len < bits && lo < s && s <= hi
			}
			if _, ok := aliasAt(p, short.Rules); ok == receives {
				t.Errorf("%d bits: part %d receives a replicated rule: %v, shares rs.Rules: %v", bits, s, receives, ok)
			}
		}
	}

	forShardCounts(t, func(t *testing.T, n int) {
		rs := withShortRules(t, withoutShortRules(t, randomRuleSet(t, 32, 400, 19), 3))
		before := slices.Clone(rs.Rules)
		u, err := BuildUpdatable(rs, quickBucketed(), n, 0)
		if err != nil {
			t.Fatal(err)
		}
		built := rs.Rules[len(rs.Rules)/2]
		for _, step := range []func() error{
			func() error { return u.Insert(lpm.Rule{Prefix: keys.FromUint64(0x0a0b0c00), Len: 24, Action: 77}) },
			func() error { return u.ModifyAction(built.Prefix, built.Len, built.Action+1) },
			func() error { return u.ModifyAction(keys.Value{}, 0, 5) },
			func() error { return u.Delete(rs.Rules[1].Prefix, rs.Rules[1].Len) },
			func() error { return u.Insert(lpm.Rule{Prefix: rs.Rules[1].Prefix, Len: rs.Rules[1].Len, Action: 78}) },
			func() error {
				for i := 0; i < u.Shards(); i++ {
					if err := u.Commit(i); err != nil {
						return err
					}
				}
				return nil
			},
		} {
			if err := step(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rs.Rules, before) {
				t.Fatal("an update wrote into the rule-set the updatable was built from")
			}
		}
	})
}

// TestShardedVsOracle is the differential core of the package: every key of
// a random stream must match the trie oracle, for both engine designs and
// several shard counts, through Lookup and LookupBatch — on a random set, and
// on one with a /0 and a /1 rule, which replicate into copied parts.
func TestShardedVsOracle(t *testing.T) {
	base := randomRuleSet(t, 32, 400, 7)
	for _, rs := range []*lpm.RuleSet{base, withShortRules(t, withoutShortRules(t, base, 2))} {
		checkShardedVsOracle(t, rs)
	}
}

func checkShardedVsOracle(t *testing.T, rs *lpm.RuleSet) {
	t.Helper()
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

// TestProbeBoundGaugeIsTheLivePlanes holds neurolpm_model_probe_bound to the
// bound of the arithmetic every lookup runs, the compiled plane's, on the
// shard's live engine. The rule set is one whose int16 re-encoding carries a
// bound past the next power of two (2 against 1), so a gauge taken over the
// wrong plane reads one probe higher; the inserts and commit then retrain the
// shard into an engine with a wider bound, which the gauge must follow.
func TestProbeBoundGaugeIsTheLivePlanes(t *testing.T) {
	rs := randomRuleSet(t, 32, 1000, 2)
	u, err := BuildUpdatable(rs, quickBucketed(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	gauge := func() int {
		v, ok := scrape()[`neurolpm_model_probe_bound{shard="0"}`]
		if !ok {
			t.Fatal(`no neurolpm_model_probe_bound{shard="0"} series`)
		}
		return int(v)
	}
	e := u.Engine(0)
	// The int16 plane's bound, as its predictions at the learned bounds show.
	cp, qp, qErr := e.Compiled(), e.Quantized(), 0
	for i := range cp.Len() {
		qErr = max(qErr, qp.Predict(cp.Low(i)).Err, qp.Predict(cp.Low(i).Dec()).Err)
	}
	c, q := rqrmi.ProbeBound(cp.MaxErr()), rqrmi.ProbeBound(qErr)
	if q == c {
		t.Fatalf("compiled and quantized bounds are both %d probes: the rule set no longer tells the two planes apart", c)
	}
	if got := gauge(); got != c {
		t.Fatalf("gauge reads %d probes, want the compiled plane's %d (quantized %d)", got, c, q)
	}

	installed := make(map[lpm.Rule]bool, rs.Len())
	for _, r := range rs.Rules {
		installed[lpm.Rule{Prefix: r.Prefix, Len: r.Len}] = true
	}
	for _, r := range randomRuleSet(t, 32, 3000, 102).Rules {
		if !installed[lpm.Rule{Prefix: r.Prefix, Len: r.Len}] {
			if err := u.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := u.Commit(0); err != nil {
		t.Fatal(err)
	}
	next := u.Engine(0)
	after := rqrmi.ProbeBound(next.Compiled().MaxErr())
	if next == e || after == c {
		t.Fatalf("commit left the bound at %d probes: the fixture no longer retrains into a different bound", c)
	}
	if got := gauge(); got != after {
		t.Fatalf("after commit the gauge reads %d probes, want the live engine's %d (was %d)", got, after, c)
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
