package ranges

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// find returns the index of the range containing k, the greatest i with
// Low(i) ≤ k, by sort.Search over the whole array: the reference the bounded
// searches are held to.
func (a *Array) find(k keys.Value) int {
	return sort.Search(a.Len(), func(i int) bool { return k.Less(a.Low(i)) }) - 1
}

// ownerOracle answers a key with the index of the longest rule of s whose
// range holds it, or lpm.NoMatch, by a scan of every rule.
type ownerOracle struct{ s *lpm.RuleSet }

func (o ownerOracle) owner(k keys.Value) int {
	best := lpm.NoMatch
	for i, r := range o.s.Rules {
		if !k.Less(r.Low(o.s.Width)) && !r.High(o.s.Width).Less(k) && (best == lpm.NoMatch || r.Len > o.s.Rules[best].Len) {
			best = i
		}
	}
	return best
}

func mustConvert(t *testing.T, width int, rules []lpm.Rule) (*lpm.RuleSet, *Array) {
	t.Helper()
	s, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Convert(s)
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

// TestPaperConversionExample checks §5.1's example: 5-bit rules r0 = 1000*
// and r1 = 100** produce ranges 10000–10001 (r0) and 10010–10011 (r1).
func TestPaperConversionExample(t *testing.T) {
	s, a := mustConvert(t, 5, []lpm.Rule{
		{Prefix: keys.FromUint64(0b10000), Len: 4, Action: 0},
		{Prefix: keys.FromUint64(0b10000), Len: 3, Action: 1},
	})
	_ = s
	// Expected ranges: [0,0b01111]→none, [0b10000,0b10001]→r0,
	// [0b10010,0b10011]→r1, [0b10100,max]→none.
	wantLows := []uint64{0, 0b10000, 0b10010, 0b10100}
	if a.Len() != len(wantLows) {
		t.Fatalf("got %d ranges, want %d", a.Len(), len(wantLows))
	}
	for i, w := range wantLows {
		if a.Low(i) != keys.FromUint64(w) {
			t.Errorf("range %d low = %v, want %#b", i, a.Low(i), w)
		}
	}
	if a.RuleOf(0) != NoRule || a.RuleOf(3) != NoRule {
		t.Error("gap ranges should be NoRule")
	}
	if act, _ := a.Action(1); act != 0 {
		t.Errorf("range 1 action = %d", act)
	}
	if act, _ := a.Action(2); act != 1 {
		t.Errorf("range 2 action = %d", act)
	}
}

func TestEmptyRuleSet(t *testing.T) {
	_, a := mustConvert(t, 8, nil)
	if a.Len() != 1 || a.RuleOf(0) != NoRule {
		t.Fatalf("empty conversion: %d ranges, range 0 owned by %d", a.Len(), a.RuleOf(0))
	}
	if i := a.find(keys.FromUint64(100)); i != 0 {
		t.Fatalf("find = %d", i)
	}
}

func TestDefaultRuleOnly(t *testing.T) {
	_, a := mustConvert(t, 8, []lpm.Rule{{Len: 0, Action: 9}})
	if a.Len() != 1 {
		t.Fatalf("ranges = %d", a.Len())
	}
	if act, ok := a.Action(0); !ok || act != 9 {
		t.Fatalf("action = %d,%v", act, ok)
	}
}

func TestNestedRules(t *testing.T) {
	// 0*** ⊃ 00** ⊃ 000* in a 4-bit domain.
	s, a := mustConvert(t, 4, []lpm.Rule{
		{Prefix: keys.FromUint64(0b0000), Len: 1, Action: 1},
		{Prefix: keys.FromUint64(0b0000), Len: 2, Action: 2},
		{Prefix: keys.FromUint64(0b0000), Len: 3, Action: 3},
	})
	oracle := ownerOracle{s}
	for k := uint64(0); k < 16; k++ {
		key := keys.FromUint64(k)
		i := a.find(key)
		want := oracle.owner(key)
		if int(a.RuleOf(i)) != want {
			t.Errorf("key %04b: range rule %d, oracle %d", k, a.RuleOf(i), want)
		}
	}
}

func TestSiblingRules(t *testing.T) {
	_, a := mustConvert(t, 4, []lpm.Rule{
		{Prefix: keys.FromUint64(0b0000), Len: 2, Action: 1},
		{Prefix: keys.FromUint64(0b0100), Len: 2, Action: 2},
		{Prefix: keys.FromUint64(0b1100), Len: 2, Action: 3},
	})
	// Ranges: [0,3]→0, [4,7]→1, [8,11]→none, [12,15]→2.
	if a.Len() != 4 {
		t.Fatalf("got %d ranges, want 4", a.Len())
	}
	if a.RuleOf(2) != NoRule {
		t.Errorf("middle gap should be NoRule, got %d", a.RuleOf(2))
	}
}

func TestHighBounds(t *testing.T) {
	_, a := mustConvert(t, 4, []lpm.Rule{
		{Prefix: keys.FromUint64(0b0100), Len: 2, Action: 1},
	})
	// Ranges: [0,3], [4,7], [8,15].
	if a.High(0) != keys.FromUint64(3) {
		t.Errorf("High(0) = %v", a.High(0))
	}
	if a.High(1) != keys.FromUint64(7) {
		t.Errorf("High(1) = %v", a.High(1))
	}
	if a.High(2) != keys.MaxValue(4) {
		t.Errorf("High(2) = %v", a.High(2))
	}
}

func TestAdjacentSameRuleMerged(t *testing.T) {
	// A child with the same action as nothing in between: check no two
	// consecutive entries share an owner.
	rng := rand.New(rand.NewSource(3))
	s := randomRuleSet(rng, 16, 200)
	a, err := Convert(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < a.Len(); i++ {
		if a.RuleOf(i) == a.RuleOf(i-1) {
			t.Fatalf("ranges %d and %d share rule %d", i-1, i, a.RuleOf(i))
		}
	}
}

// TestExpansionBound holds the conversion to at most 2n+1 ranges, held at
// their exact size: random rule-sets expand past the 1.25 Convert reserves,
// so the grown case is covered too.
func TestExpansionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		s := randomRuleSet(rng, 32, 300)
		a, err := Convert(s)
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() > 2*s.Len()+1 {
			t.Fatalf("expansion %d ranges from %d rules exceeds 2n+1", a.Len(), s.Len())
		}
		if cap(a.owners) != a.Len() || cap(a.bounds) != a.Len()*a.limbs {
			t.Fatalf("%d ranges kept in capacities %d and %d", a.Len(), cap(a.owners), cap(a.bounds))
		}
	}
}

func randomRuleSet(rng *rand.Rand, width, n int) *lpm.RuleSet {
	type pl struct {
		p keys.Value
		l int
	}
	// Small domains cannot yield n distinct rules; cap by the number of
	// possible (prefix,len) pairs to keep the dedupe loop finite.
	if width < 10 {
		if limit := (1 << (width + 1)) / 2; n > limit {
			n = limit
		}
	}
	seen := map[pl]bool{}
	var rules []lpm.Rule
	for len(rules) < n {
		length := 1 + rng.Intn(width)
		var prefix keys.Value
		if width <= 64 {
			prefix = keys.FromUint64(rng.Uint64())
		} else {
			prefix = keys.FromParts(rng.Uint64(), rng.Uint64())
		}
		prefix = prefix.Shr(uint(128 - width)) // confine to width bits... see below
		if width <= 64 {
			prefix = keys.FromUint64(rng.Uint64() & (uint64(1)<<(width-1)<<1 - 1))
		}
		if length < width {
			prefix = prefix.Shr(uint(width - length)).Shl(uint(width - length))
		}
		k := pl{prefix, length}
		if seen[k] {
			continue
		}
		seen[k] = true
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: uint64(rng.Intn(100))})
	}
	s, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		panic(err)
	}
	return s
}

// TestOracleEquivalence is the central correctness property of the
// conversion: for random rule-sets and random keys, the range array must
// agree with the trie oracle.
func TestOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{4, 8, 16, 32, 64, 128} {
		for trial := 0; trial < 5; trial++ {
			s := randomRuleSet(rng, width, 150)
			a, err := Convert(s)
			if err != nil {
				t.Fatal(err)
			}
			oracle := ownerOracle{s}
			for q := 0; q < 400; q++ {
				var k keys.Value
				if width <= 64 {
					k = keys.FromUint64(rng.Uint64() & (uint64(1)<<(width-1)<<1 - 1))
				} else {
					k = keys.FromParts(rng.Uint64(), rng.Uint64())
				}
				got := int(a.RuleOf(a.find(k)))
				want := oracle.owner(k)
				if got != want {
					t.Fatalf("width %d key %v: range %d, oracle %d", width, k, got, want)
				}
			}
		}
	}
}

// TestOracleEquivalenceAtBoundaries probes exactly at range boundaries and
// their neighbours, the most error-prone points of the sweep.
func TestOracleEquivalenceAtBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randomRuleSet(rng, 16, 120)
	a, err := Convert(s)
	if err != nil {
		t.Fatal(err)
	}
	oracle := ownerOracle{s}
	check := func(k keys.Value) {
		got := int(a.RuleOf(a.find(k)))
		if want := oracle.owner(k); got != want {
			t.Fatalf("key %v: range %d, oracle %d", k, got, want)
		}
	}
	for i := range a.Len() {
		check(a.Low(i))
		check(a.High(i))
		if i > 0 {
			check(a.Low(i).Dec())
		}
	}
}

// FindWithin performs the bounded secondary search of the hardware engine:
// it searches only [lo, hi] (clamped), assuming the true answer lies there.
// It returns the index and the number of array probes the binary search
// performed (the quantity the paper's FSM/bank analysis is built on).
func (a *Array) FindWithin(k keys.Value, lo, hi int) (idx, probes int) {
	if lo < 0 {
		lo = 0
	}
	if hi > a.Len()-1 {
		hi = a.Len() - 1
	}
	return keys.BoundedSearch(k, lo, hi, a.Low)
}

func TestFindWithinAgreesWithFind(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomRuleSet(rng, 32, 400)
	a, err := Convert(s)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 2000; q++ {
		k := keys.FromUint64(uint64(rng.Uint32()))
		want := a.find(k)
		// Any window containing the answer must locate it.
		e := rng.Intn(50)
		got, probes := a.FindWithin(k, want-e, want+e)
		if got != want {
			t.Fatalf("FindWithin = %d, want %d", got, want)
		}
		if maxProbes := bitsFor(2*e + 1); probes > maxProbes {
			t.Fatalf("probes %d exceed log bound %d for window %d", probes, maxProbes, 2*e+1)
		}
	}
}

func bitsFor(n int) int {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	return b + 1
}

func TestFindWithinClamps(t *testing.T) {
	_, a := mustConvert(t, 8, []lpm.Rule{
		{Prefix: keys.FromUint64(0x80), Len: 1, Action: 1},
	})
	idx, _ := a.FindWithin(keys.FromUint64(0xFF), -10, 1000)
	if idx != a.find(keys.FromUint64(0xFF)) {
		t.Fatalf("clamped search = %d", idx)
	}
}

func TestFindFirstAndLastKey(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randomRuleSet(rng, 32, 100)
	a, err := Convert(s)
	if err != nil {
		t.Fatal(err)
	}
	if i := a.find(keys.Value{}); i != 0 {
		t.Fatalf("find(0) = %d", i)
	}
	if i := a.find(keys.MaxValue(32)); i != a.Len()-1 {
		t.Fatalf("find(max) = %d, want %d", i, a.Len()-1)
	}
}

// TestSetAction: until a rule's action is set, the array reads every action
// from the source rule-set; a set action is the one the array answers, the
// source is never written, and a rule nobody set still answers its source
// rule's action.
func TestSetAction(t *testing.T) {
	s, a := mustConvert(t, 8, []lpm.Rule{
		{Prefix: keys.FromUint64(0x80), Len: 1, Action: 1},
		{Prefix: keys.FromUint64(0x00), Len: 1, Action: 2},
	})
	idx := s.Find(keys.FromUint64(0x80), 1)
	set, other := a.find(keys.FromUint64(0x90)), a.find(keys.FromUint64(0x10))
	s.Rules[1-idx].Action = 3 // no copy: the array reads it where it is
	if act, ok := a.Action(other); !ok || act != 3 {
		t.Fatalf("action before SetAction = %d,%v, want the source rule's 3", act, ok)
	}
	snap := slices.Clone(s.Rules)
	a.SetAction(int32(idx), 77)
	if act, _ := a.Action(set); act != 77 {
		t.Fatalf("action after SetAction = %d", act)
	}
	if !slices.Equal(s.Rules, snap) {
		t.Fatalf("SetAction wrote into the source rule-set: %v", s.Rules)
	}
	if act, ok := a.Action(other); !ok || act != s.Rules[1-idx].Action {
		t.Fatalf("untouched rule's action = %d,%v, want its source rule's %d", act, ok, s.Rules[1-idx].Action)
	}
}

func TestSizeBytes(t *testing.T) {
	_, a := mustConvert(t, 32, []lpm.Rule{
		{Prefix: keys.FromUint64(0x80000000), Len: 1, Action: 1},
	})
	if a.BytesPerEntry() != 4 {
		t.Fatalf("BytesPerEntry = %d", a.BytesPerEntry())
	}
	if a.SizeBytes() != 4*a.Len() {
		t.Fatalf("SizeBytes = %d", a.SizeBytes())
	}
	// The SRAM figure is ⌈w/8⌉ bytes, not the 32-bit limbs the bounds
	// column rounds a 48-bit bound up to.
	_, a = mustConvert(t, 48, []lpm.Rule{
		{Prefix: keys.FromUint64(1 << 47), Len: 1, Action: 1},
	})
	if a.BytesPerEntry() != 6 {
		t.Fatalf("48-bit BytesPerEntry = %d", a.BytesPerEntry())
	}
	_, a = mustConvert(t, 128, []lpm.Rule{
		{Prefix: keys.FromParts(1<<63, 0), Len: 1, Action: 1},
	})
	if a.BytesPerEntry() != 16 {
		t.Fatalf("128-bit BytesPerEntry = %d", a.BytesPerEntry())
	}
}

func TestExpansionStats(t *testing.T) {
	_, a := mustConvert(t, 4, []lpm.Rule{
		{Prefix: keys.FromUint64(0b0100), Len: 2, Action: 1},
	})
	st := a.Expansion(1)
	if st.Rules != 1 || st.Ranges != 3 || st.Expansion != 2.0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestConversionCoversDomain asserts the first range starts at zero and the
// lows are strictly increasing — the invariants Find depends on.
func TestConversionCoversDomain(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomRuleSet(rng, 16, 80)
		a, err := Convert(s)
		if err != nil {
			return false
		}
		if !a.Low(0).IsZero() {
			return false
		}
		for i := 1; i < a.Len(); i++ {
			if !a.Low(i - 1).Less(a.Low(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkConvert10K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := randomRuleSet(rng, 32, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Convert(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFind(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	s := randomRuleSet(rng, 32, 100000)
	a, err := Convert(s)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]keys.Value, 1024)
	for i := range queries {
		queries[i] = keys.FromUint64(uint64(rng.Uint32()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.find(queries[i&1023])
	}
}

// TestConvertExactSize pins Convert to writing its columns once, at their
// exact size: no spare capacity, and three allocations — the array, its
// bounds and its owners — whatever the rule count, so neither a sweep buffer
// larger than the result nor a shrink copy of it comes back.
func TestConvertExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1000, 50000} {
		s := randomRuleSet(rng, 32, n)
		a, err := Convert(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.bounds) != cap(a.bounds) || len(a.owners) != cap(a.owners) {
			t.Errorf("%d rules: bounds %d in capacity %d, owners %d in capacity %d",
				n, len(a.bounds), cap(a.bounds), len(a.owners), cap(a.owners))
		}
		if got := testing.AllocsPerRun(3, func() { Convert(s) }); got != 3 {
			t.Errorf("%d rules: Convert made %v allocations, want 3", n, got)
		}
	}
}

// TestArrayBytesPerRange pins the array to the key's own width: at every
// width its columns hold exactly ⌈w/32⌉ 4-byte bound limbs and one 4-byte
// owner a range, and at width 32 the live heap Convert leaves is 8 bytes a
// range — the paper's 4-byte bound (§5.1) and the owning rule.
func TestArrayBytesPerRange(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, w := range []int{32, 48, 64, 96, 128} {
		a, err := Convert(randomRuleSet(rng, w, 500))
		if err != nil {
			t.Fatal(err)
		}
		limbs := (w + 31) / 32
		got := 4*cap(a.bounds) + 4*cap(a.owners)
		if want := 4 * a.Len() * (limbs + 1); got != want {
			t.Errorf("width %d: columns hold %d bytes for %d ranges, want %d", w, got, a.Len(), want)
		}
	}

	if raceEnabled {
		return // race instrumentation adds its own allocations
	}
	s := randomRuleSet(rng, 32, 200_000)
	before := liveHeap()
	a, err := Convert(s)
	if err != nil {
		t.Fatal(err)
	}
	perRange := (liveHeap() - before) / float64(a.Len())
	runtime.KeepAlive(a)
	if perRange > 8.5 {
		t.Fatalf("Convert retains %.2f B a range at width 32, want at most 8.5", perRange)
	}
	t.Logf("Convert retains %.2f B a range at width 32 (%d ranges)", perRange, a.Len())
}

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// TestLimbCountsRoundTrip converts random rule-sets at widths of one to four
// 32-bit limbs, each limb count at its edges: every bound assembles back to
// a strictly increasing cover of the domain from zero, both ends of every
// range answer its owner per the trie oracle, and the key below a range
// answers another rule, so the merge of equal owners stayed maximal.
func TestLimbCountsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, w := range []int{8, 32, 33, 48, 64, 65, 96, 128} {
		for trial := 0; trial < 3; trial++ {
			s := randomRuleSet(rng, w, 150)
			a, err := Convert(s)
			if err != nil {
				t.Fatal(err)
			}
			oracle := ownerOracle{s}
			if !a.Low(0).IsZero() {
				t.Fatalf("width %d: range 0 starts at %v", w, a.Low(0))
			}
			for i := range a.Len() {
				lo, owner := a.Low(i), int(a.RuleOf(i))
				if i > 0 {
					if !a.Low(i - 1).Less(lo) {
						t.Fatalf("width %d: low %d = %v not above low %d = %v", w, i, lo, i-1, a.Low(i-1))
					}
					if below := oracle.owner(lo.Dec()); below == owner {
						t.Fatalf("width %d: the key below range %d answers its owner %d", w, i, owner)
					}
				}
				if got := oracle.owner(lo); got != owner {
					t.Fatalf("width %d: low of range %d answers %d, owner %d", w, i, got, owner)
				}
				if got := oracle.owner(a.High(i)); got != owner {
					t.Fatalf("width %d: high of range %d answers %d, owner %d", w, i, got, owner)
				}
			}
		}
	}
}
