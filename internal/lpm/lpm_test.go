package lpm

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"neurolpm/internal/keys"
)

// Matches reports whether r matches key k in a width-bit domain.
func (r Rule) Matches(width int, k keys.Value) bool {
	if r.Len == 0 {
		return true
	}
	shift := uint(width - r.Len)
	return k.Shr(shift) == r.Prefix.Shr(shift)
}

// Clone returns a deep copy of the rule-set.
func (s *RuleSet) Clone() *RuleSet {
	return &RuleSet{Width: s.Width, Rules: append([]Rule(nil), s.Rules...)}
}

// LongestMatch returns the index (into Rules) of the longest-prefix rule
// matching k, or NoMatch. This is the O(n) reference oracle.
func (s *RuleSet) LongestMatch(k keys.Value) int {
	best := NoMatch
	bestLen := -1
	for i, r := range s.Rules {
		if r.Len > bestLen && r.Matches(s.Width, k) {
			best, bestLen = i, r.Len
		}
	}
	return best
}

func mustRuleSet(t *testing.T, width int, rules []Rule) *RuleSet {
	t.Helper()
	s, err := NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// paperRules reproduces the 5-bit example from §2.1 of the paper:
// r1 = 001** and r2 = 00***.
func paperRules(t *testing.T) *RuleSet {
	return mustRuleSet(t, 5, []Rule{
		{Prefix: keys.FromUint64(0b00100), Len: 3, Action: 1},
		{Prefix: keys.FromUint64(0b00000), Len: 2, Action: 2},
	})
}

func TestPaperExample(t *testing.T) {
	s := paperRules(t)
	// Input 00111 matches r1 (001**), the longer prefix.
	i := s.LongestMatch(keys.FromUint64(0b00111))
	if i == NoMatch || s.Rules[i].Action != 1 {
		t.Fatalf("00111 matched %d, want action 1", i)
	}
	// Input 00011 matches only r2.
	i = s.LongestMatch(keys.FromUint64(0b00011))
	if i == NoMatch || s.Rules[i].Action != 2 {
		t.Fatalf("00011 matched %d, want action 2", i)
	}
	// Input 01000 matches nothing.
	if i := s.LongestMatch(keys.FromUint64(0b01000)); i != NoMatch {
		t.Fatalf("01000 matched %d, want NoMatch", i)
	}
}

func TestRuleLowHigh(t *testing.T) {
	r := Rule{Prefix: keys.FromUint64(0b10000), Len: 4} // 1000* in 5 bits
	if got := r.Low(5); got != keys.FromUint64(0b10000) {
		t.Errorf("Low = %v", got)
	}
	if got := r.High(5); got != keys.FromUint64(0b10001) {
		t.Errorf("High = %v", got)
	}
	// Full-length rule matches exactly one key.
	r = Rule{Prefix: keys.FromUint64(7), Len: 5}
	if r.Low(5) != r.High(5) {
		t.Error("full-length rule should have Low == High")
	}
	// Zero-length rule covers the whole domain.
	r = Rule{Len: 0}
	if r.High(5) != keys.MaxValue(5) {
		t.Errorf("default rule High = %v", r.High(5))
	}
}

func TestRuleMatches(t *testing.T) {
	r := Rule{Prefix: keys.FromUint64(0b00100), Len: 3}
	for k, want := range map[uint64]bool{
		0b00100: true, 0b00111: true, 0b00011: false, 0b01100: false,
	} {
		if got := r.Matches(5, keys.FromUint64(k)); got != want {
			t.Errorf("Matches(%05b) = %v, want %v", k, got, want)
		}
	}
}

func TestRuleMatchesEqualsRangeContainment(t *testing.T) {
	f := func(prefixRaw uint32, lenRaw uint8, kRaw uint32) bool {
		length := int(lenRaw % 33)
		mask := uint64(0)
		if length > 0 {
			mask = ^uint64(0) << (32 - length) & 0xFFFFFFFF
		}
		r := Rule{Prefix: keys.FromUint64(uint64(prefixRaw) & mask), Len: length}
		k := keys.FromUint64(uint64(kRaw))
		inRange := r.Low(32).Cmp(k) <= 0 && k.Cmp(r.High(32)) <= 0
		return r.Matches(32, k) == inRange
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	good := Rule{Prefix: keys.FromUint64(0xFF000000), Len: 8}
	if err := good.Validate(32); err != nil {
		t.Errorf("valid rule rejected: %v", err)
	}
	bad := []Rule{
		{Prefix: keys.FromUint64(1), Len: 8},       // wildcard bits set
		{Prefix: keys.FromUint64(0), Len: 33},      // too long
		{Prefix: keys.FromUint64(0), Len: -1},      // negative
		{Prefix: keys.FromUint64(1 << 40), Len: 8}, // prefix exceeds width
		{Prefix: keys.FromParts(1, 0), Len: 8},     // high limb in 32-bit
	}
	for _, r := range bad {
		if err := r.Validate(32); err == nil {
			t.Errorf("invalid rule %v accepted", r)
		}
	}
}

func TestNewRuleSetRejectsDuplicates(t *testing.T) {
	_, err := NewRuleSet(8, []Rule{
		{Prefix: keys.FromUint64(0x80), Len: 4, Action: 1},
		{Prefix: keys.FromUint64(0x80), Len: 4, Action: 2},
	})
	if err == nil {
		t.Fatal("duplicate prefix/len accepted")
	}
}

func TestNewRuleSetRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, -5, 129} {
		if _, err := NewRuleSet(w, nil); err == nil {
			t.Errorf("width %d accepted", w)
		}
	}
}

func TestRuleSetSortOrder(t *testing.T) {
	s := mustRuleSet(t, 8, []Rule{
		{Prefix: keys.FromUint64(0x80), Len: 4, Action: 1},
		{Prefix: keys.FromUint64(0x80), Len: 1, Action: 2},
		{Prefix: keys.FromUint64(0x40), Len: 2, Action: 3},
	})
	// Covering (shorter) prefixes with the same low bound come first.
	if s.Rules[0].Prefix != keys.FromUint64(0x40) {
		t.Fatalf("rules[0] = %v", s.Rules[0])
	}
	if s.Rules[1].Len != 1 || s.Rules[2].Len != 4 {
		t.Fatalf("nested order wrong: %v", s.Rules)
	}
}

func TestFind(t *testing.T) {
	s := paperRules(t)
	if i := s.Find(keys.FromUint64(0b00100), 3); i == NoMatch || s.Rules[i].Action != 1 {
		t.Fatalf("Find existing = %d", i)
	}
	if i := s.Find(keys.FromUint64(0b00100), 4); i != NoMatch {
		t.Fatalf("Find missing = %d", i)
	}
}

func TestParseRule(t *testing.T) {
	r, err := parseRule(32, "0xc0a80000/16 7")
	if err != nil {
		t.Fatal(err)
	}
	if r.Prefix != keys.FromUint64(0xc0a80000) || r.Len != 16 || r.Action != 7 {
		t.Fatalf("parsed %v", r)
	}
}

func TestParseRuleDecimal(t *testing.T) {
	r, err := parseRule(8, "128/1 3")
	if err != nil {
		t.Fatal(err)
	}
	if r.Prefix != keys.FromUint64(128) || r.Len != 1 {
		t.Fatalf("parsed %v", r)
	}
}

func TestParseRule128(t *testing.T) {
	r, err := parseRule(128, "0x20010db8000000000000000000000000/32 9")
	if err != nil {
		t.Fatal(err)
	}
	if r.Prefix != keys.FromParts(0x20010db800000000, 0) || r.Len != 32 {
		t.Fatalf("parsed %v", r)
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"", "0x10/4", "0x10/4 5 6", "nope/4 1", "0x10/x 1", "0x10/4 act",
		"0x11/4 1", // wildcard bits set in an 8-bit domain
	}
	for _, line := range bad {
		if _, err := parseRule(8, line); err == nil {
			t.Errorf("parseRule(%q) accepted", line)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	s := paperRules(t)
	got, err := ParseRuleSet(5, s.Format())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip lost rules: %d vs %d", got.Len(), s.Len())
	}
	for i := range got.Rules {
		if got.Rules[i] != s.Rules[i] {
			t.Fatalf("rule %d: %v vs %v", i, got.Rules[i], s.Rules[i])
		}
	}
}

func TestParseRuleSetSkipsComments(t *testing.T) {
	s, err := ParseRuleSet(8, "# comment\n\n0x80/1 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("rules = %d", s.Len())
	}
}

func TestParseRuleSetReportsLine(t *testing.T) {
	_, err := ParseRuleSet(8, "0x80/1 1\nbogus\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

func TestPrefixHistogram(t *testing.T) {
	s := paperRules(t)
	h := s.PrefixHistogram()
	if len(h) != 6 || h[2] != 1 || h[3] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := paperRules(t)
	c := s.Clone()
	c.Rules[0].Action = 99
	if s.Rules[0].Action == 99 {
		t.Fatal("Clone shares rule storage")
	}
}

func TestNewRuleSetCopiesOwnRuleSetAdopts(t *testing.T) {
	unsorted := func() []Rule {
		return []Rule{
			{Prefix: keys.FromUint64(0b10000), Len: 1, Action: 1},
			{Prefix: keys.FromUint64(0b00000), Len: 2, Action: 2},
		}
	}
	rules := unsorted()
	s := mustRuleSet(t, 5, rules)
	s.Rules[0].Action = 99
	if !slices.Equal(rules, unsorted()) {
		t.Fatalf("NewRuleSet reordered or shares the caller's slice: %v", rules)
	}
	s, err := OwnRuleSet(5, rules)
	if err != nil {
		t.Fatal(err)
	}
	if &s.Rules[0] != &rules[0] || rules[0].Len != 2 {
		t.Fatalf("OwnRuleSet did not keep and sort the slice it was handed: %v", rules)
	}
	if _, err := OwnRuleSet(5, []Rule{{Prefix: keys.FromUint64(1), Len: 1}}); err == nil {
		t.Fatal("OwnRuleSet accepted a rule with wildcard bits set")
	}
}

// TestParseRuleSetAllocs pins ParseRuleSet to a fixed number of allocations
// — the rule slice and the rule-set — whatever the line count, so a
// per-line allocation that comes back fails here.
func TestParseRuleSetAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var allocs []float64
	for _, n := range []int{10000, 100000} {
		text := randomRuleSet(rng, 32, n).Format()
		allocs = append(allocs, testing.AllocsPerRun(2, func() {
			if _, err := ParseRuleSet(32, text); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] > 2 {
		t.Fatalf("ParseRuleSet allocations at 10 000 and 100 000 rules: %v, want the same count, at most 2", allocs)
	}
}

func randomRuleSet(rng *rand.Rand, width, n int) *RuleSet {
	seen := map[Rule]bool{}
	var rules []Rule
	for len(rules) < n {
		length := rng.Intn(width + 1)
		var prefix keys.Value
		if width <= 64 {
			prefix = keys.FromUint64(rng.Uint64() & (uint64(1)<<width - 1))
		} else {
			prefix = keys.FromParts(rng.Uint64(), rng.Uint64())
		}
		if length < width {
			prefix = prefix.Shr(uint(width - length)).Shl(uint(width - length))
		}
		key := Rule{Prefix: prefix, Len: length}
		if seen[key] {
			continue
		}
		seen[key] = true
		rules = append(rules, Rule{Prefix: prefix, Len: length, Action: uint64(rng.Intn(256))})
	}
	s, err := NewRuleSet(width, rules)
	if err != nil {
		panic(err)
	}
	return s
}

func TestTrieMatchesLinearOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{8, 16, 32, 64, 128} {
		s := randomRuleSet(rng, width, 60)
		trie := newTrie(s)
		for q := 0; q < 500; q++ {
			var k keys.Value
			if width <= 64 {
				k = keys.FromUint64(rng.Uint64() & (uint64(1)<<(width-1)<<1 - 1))
			} else {
				k = keys.FromParts(rng.Uint64(), rng.Uint64())
			}
			want := s.LongestMatch(k)
			got := trie.lookup(k)
			if got != want {
				t.Fatalf("width %d key %v: trie %d, linear %d", width, k, got, want)
			}
		}
	}
}

func TestTrieDefaultRule(t *testing.T) {
	s := mustRuleSet(t, 8, []Rule{{Len: 0, Action: 42}})
	trie := newTrie(s)
	if i := trie.lookup(keys.FromUint64(200)); i != 0 {
		t.Fatalf("default rule not matched: %d", i)
	}
}

func TestTrieEmpty(t *testing.T) {
	s := mustRuleSet(t, 8, nil)
	trie := newTrie(s)
	if i := trie.lookup(keys.FromUint64(5)); i != NoMatch {
		t.Fatalf("empty trie matched %d", i)
	}
}

func TestTrieMatcher(t *testing.T) {
	s := paperRules(t)
	m := NewTrieMatcher(s)
	if a, ok := m.Lookup(keys.FromUint64(0b00111)); !ok || a != 1 {
		t.Fatalf("Lookup = %d,%v", a, ok)
	}
	if _, ok := m.Lookup(keys.FromUint64(0b11111)); ok {
		t.Fatal("expected no match")
	}
}

func TestTrieNodeCountBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomRuleSet(rng, 32, 100)
	trie := newTrie(s)
	// A unibit trie has at most 1 + sum(len) nodes.
	max := 1
	for _, r := range s.Rules {
		max += r.Len
	}
	if len(trie.nodes) > max {
		t.Fatalf("node count %d exceeds bound %d", len(trie.nodes), max)
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randomRuleSet(rng, 32, 10000)
	trie := newTrie(s)
	queries := make([]keys.Value, 1024)
	for i := range queries {
		queries[i] = keys.FromUint64(uint64(rng.Uint32()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trie.lookup(queries[i&1023])
	}
}
