package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/workload"
)

func quickModel() rqrmi.Config {
	cfg := rqrmi.DefaultConfig()
	cfg.StageWidths = []int{1, 2, 8}
	return cfg
}

func quickSRAMOnly() Config { return Config{Model: quickModel()} }
func quickBucketed() Config { return Config{BucketSize: 8, Model: quickModel()} }

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
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: uint64(rng.Intn(1000))})
	}
	s, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// covers reports whether r's prefix covers k in a width-bit domain.
func covers(r lpm.Rule, width int, k keys.Value) bool {
	return !k.Less(r.Low(width)) && !r.High(width).Less(k)
}

// longestMatch is the index of the longest rule of rs that covers k, or
// lpm.NoMatch: one rule-set search a prefix length, longest first.
func longestMatch(rs *lpm.RuleSet, k keys.Value) int {
	for l := rs.Width; l >= 0; l-- {
		s := uint(rs.Width - l)
		if i := rs.Find(k.Shr(s).Shl(s), l); i != lpm.NoMatch {
			return i
		}
	}
	return lpm.NoMatch
}

func randomKey(rng *rand.Rand, width int) keys.Value {
	if width <= 64 {
		return keys.FromUint64(rng.Uint64() & (uint64(1)<<(width-1)<<1 - 1))
	}
	return keys.FromParts(rng.Uint64(), rng.Uint64())
}

func assertMatchesOracle(t *testing.T, e *Engine, rs *lpm.RuleSet, queries int, seed int64) {
	t.Helper()
	oracle := lpm.NewTrieMatcher(rs)
	rng := rand.New(rand.NewSource(seed))
	for q := 0; q < queries; q++ {
		k := randomKey(rng, rs.Width)
		got, gotOK := e.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v: engine (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
}

func TestBuildSRAMOnly(t *testing.T) {
	rs := randomRuleSet(t, 32, 500, 1)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	if e.dir != nil {
		t.Fatal("SRAM-only engine reports bucketized")
	}
	if e.WorstCaseDRAMAccesses() != 0 {
		t.Fatal("SRAM-only engine claims DRAM accesses")
	}
	assertMatchesOracle(t, e, rs, 4000, 2)
}

func TestBuildBucketized(t *testing.T) {
	rs := randomRuleSet(t, 32, 500, 3)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	if e.dir == nil {
		t.Fatal("engine not bucketized")
	}
	if e.WorstCaseDRAMAccesses() != 1 {
		t.Fatalf("worst-case accesses = %d, want 1 (§10.2)", e.WorstCaseDRAMAccesses())
	}
	assertMatchesOracle(t, e, rs, 4000, 4)
}

// TestFitReachesPaperTarget: at the default configuration (K = 8, 1/4/64)
// every submodel of a RIPE-like 100K-rule engine is within the paper's
// tightest target, log₂e = 6 (Fig 6b). The SGD trainer this replaced read 390.
func TestFitReachesPaperTarget(t *testing.T) {
	rs, err := workload.Generate(workload.RIPE(), 100000, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(rs, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := slices.Max(e.TrainStats().SubmodelErrs); got > 64 {
		t.Fatalf("max error bound %d, paper's target 64", got)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestBuild128Bit(t *testing.T) {
	rs := randomRuleSet(t, 128, 300, 5)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, e, rs, 2000, 6)
}

func TestBuildRejectsBadConfig(t *testing.T) {
	rs := randomRuleSet(t, 16, 50, 7)
	if _, err := Build(nil, quickSRAMOnly()); err == nil {
		t.Error("nil rule-set accepted")
	}
	cfg := quickSRAMOnly()
	cfg.BucketSize = 1
	if _, err := Build(rs, cfg); err == nil {
		t.Error("bucket size 1 accepted")
	}
	cfg.BucketSize = -3
	if _, err := Build(rs, cfg); err == nil {
		t.Error("negative bucket size accepted")
	}
}

func TestBuildEmptyRuleSet(t *testing.T) {
	rs, err := lpm.NewRuleSet(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Lookup(keys.FromUint64(123)); ok {
		t.Fatal("empty rule-set matched something")
	}
}

// TestBuildSharesRuleSet: the engine keeps the rule-set it is built from, with
// no copy, and writes nothing into it — not on a modify, a delete, an absorbed
// insert, a re-insert of a deleted rule with a new action or a rebuild. The
// range array's actions read through the one action store, and what a build
// retains is the engine's own layout: no rule table, and an action table of
// the distinct actions alone.
func TestBuildSharesRuleSet(t *testing.T) {
	rs := randomRuleSet(t, 32, 2000, 41)
	snap := slices.Clone(rs.Rules)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	if e.rules != rs {
		t.Fatal("Build copied the rule-set")
	}
	mod, del := rs.Rules[len(rs.Rules)/3], rs.Rules[2*len(rs.Rules)/3]
	if err := e.ModifyAction(mod.Prefix, mod.Len, mod.Action+5000); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(del.Prefix, del.Len); err != nil {
		t.Fatal(err)
	}
	want := slices.DeleteFunc(slices.Clone(snap), func(r lpm.Rule) bool { return r == del })
	want[slices.Index(want, mod)].Action += 5000
	wantSet, err := lpm.NewRuleSet(32, want)
	if err != nil {
		t.Fatal(err)
	}
	oracle := lpm.NewTrieMatcher(wantSet)
	ra := e.Ranges()
	for i := range ra.Len() { // the path benchmark/trace.go replays
		got, ok := ra.Action(i)
		w, wok := oracle.Lookup(ra.Low(i))
		if ok != wok || (ok && got != w) {
			t.Fatalf("range %d: Array.Action (%d,%v), oracle (%d,%v)", i, got, ok, w, wok)
		}
	}

	fresh := lpm.Rule{Prefix: keys.FromUint64(0x0a0b0c00), Len: 24, Action: 7}
	if rs.Find(fresh.Prefix, fresh.Len) != lpm.NoMatch {
		t.Fatal("the fresh rule is in the set")
	}
	if err := e.Insert(fresh); err != nil {
		t.Fatal(err)
	}
	if len(e.absorbed) != 1 {
		t.Fatalf("%d absorbed rules after an absorbed insert", len(e.absorbed))
	}
	back := del
	back.Action += 9000
	if err := e.Insert(back); err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	next, err := e.Rebuild(lpm.Rule{Prefix: keys.FromUint64(0x0a0b0d00), Len: 24, Action: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Verify(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rs.Rules, snap) {
		t.Fatal("the engine wrote into the rule-set it was built from")
	}

	if raceEnabled {
		return // race instrumentation adds its own allocations
	}
	const n = 200_000
	big, err := workload.Generate(workload.RIPE(), n, 1)
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	eng, err := Build(big, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	perRule := (liveHeap() - before) / n
	runtime.KeepAlive(eng)
	runtime.KeepAlive(big)
	if perRule > 22 {
		t.Fatalf("Build retains %.1f B a rule beside the rule-set, want at most 22", perRule)
	}
	t.Logf("Build retains %.1f B a rule beside the rule-set", perRule)
}

// liveHeap returns the bytes of live heap after a collection.
func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

func TestLookupTraceSRAMOnly(t *testing.T) {
	rs := randomRuleSet(t, 24, 300, 8)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 500; q++ {
		tr := e.LookupMem(randomKey(rng, 24), cachesim.Null{})
		if tr.BucketRead || tr.DRAMBytes != 0 {
			t.Fatal("SRAM-only trace shows DRAM traffic")
		}
		maxProbes := 2 + bitsFor(2*e.Model().MaxErr()+1)
		if tr.SRAMProbes > maxProbes {
			t.Fatalf("probes %d exceed bound %d", tr.SRAMProbes, maxProbes)
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

func TestLookupTraceBucketized(t *testing.T) {
	rs := randomRuleSet(t, 24, 400, 10)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	u := &cachesim.Uncached{}
	rng := rand.New(rand.NewSource(11))
	n := 500
	for q := 0; q < n; q++ {
		tr := e.LookupMem(randomKey(rng, 24), u)
		if !tr.BucketRead {
			t.Fatal("bucketized lookup skipped the bucket read")
		}
		if tr.DRAMBytes != e.Directory().BucketBytes() {
			t.Fatalf("DRAM bytes %d, want %d", tr.DRAMBytes, e.Directory().BucketBytes())
		}
	}
	if got := u.Stats().Accesses; got != uint64(n) {
		t.Fatalf("mem saw %d accesses, want %d (exactly one per query)", got, n)
	}
}

func TestLookupThroughCache(t *testing.T) {
	rs := randomRuleSet(t, 24, 1000, 12)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	cache, err := cachesim.New(cachesim.DefaultConfig(64 * 1024))
	if err != nil {
		t.Fatal(err)
	}
	// A small hot set must become cache-resident.
	hot := make([]keys.Value, 32)
	rng := rand.New(rand.NewSource(13))
	for i := range hot {
		hot[i] = randomKey(rng, 24)
	}
	for round := 0; round < 3; round++ {
		for _, k := range hot {
			e.LookupMem(k, cache)
		}
	}
	warm := cache.Stats()
	for _, k := range hot {
		e.LookupMem(k, cache)
	}
	if m := cache.Stats().Misses - warm.Misses; m != 0 {
		t.Fatalf("hot set still missing: %d misses", m)
	}
}

func TestModifyAction(t *testing.T) {
	rs := randomRuleSet(t, 24, 200, 14)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Rules[0]
	if err := e.ModifyAction(r.Prefix, r.Len, 424242); err != nil {
		t.Fatal(err)
	}
	// A key inside the rule that is owned by it must see the new action.
	// Find such a key via a range owned by rule 0 in the engine's own
	// rule order.
	idx := e.rules.Find(r.Prefix, r.Len)
	found := false
	for i := range e.ra.Len() {
		if e.ra.RuleOf(i) == int32(idx) {
			got, ok := e.Lookup(e.ra.Low(i))
			if !ok || got != 424242 {
				t.Fatalf("after modify: got %d,%v", got, ok)
			}
			found = true
			break
		}
	}
	if !found {
		t.Skip("rule fully shadowed; nothing to observe")
	}
	if err := e.ModifyAction(r.Prefix, r.Len+1, 1); err == nil && e.rules.Find(r.Prefix, r.Len+1) == lpm.NoMatch {
		t.Fatal("modifying a missing rule succeeded")
	}
}

func TestDelete(t *testing.T) {
	rs := randomRuleSet(t, 20, 150, 15)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	// Delete a third of the rules, then compare against an oracle over the
	// survivors.
	rng := rand.New(rand.NewSource(16))
	var kept []lpm.Rule
	for i, r := range rs.Rules {
		if i%3 == 0 {
			if err := e.Delete(r.Prefix, r.Len); err != nil {
				t.Fatal(err)
			}
		} else {
			kept = append(kept, r)
		}
	}
	keptSet, err := lpm.NewRuleSet(20, kept)
	if err != nil {
		t.Fatal(err)
	}
	oracle := lpm.NewTrieMatcher(keptSet)
	for q := 0; q < 5000; q++ {
		k := randomKey(rng, 20)
		got, gotOK := e.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v after delete: engine (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
}

func TestDeleteMissingRule(t *testing.T) {
	rs := randomRuleSet(t, 20, 50, 17)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Rules[0]
	if err := e.Delete(r.Prefix, r.Len); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(r.Prefix, r.Len); err == nil {
		t.Fatal("double delete succeeded")
	}
}

// TestRebuildAddsRules: Rebuild retrains over the live rules plus the added
// ones, and leaves its receiver as it was.
func TestRebuildAddsRules(t *testing.T) {
	rs := randomRuleSet(t, 24, 200, 18)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	extra := randomRuleSet(t, 24, 260, 19)
	// Avoid duplicate (prefix,len) pairs with the installed set.
	var newRules []lpm.Rule
	for _, r := range extra.Rules {
		if rs.Find(r.Prefix, r.Len) == lpm.NoMatch {
			newRules = append(newRules, r)
		}
	}
	e2, err := e.Rebuild(newRules...)
	if err != nil {
		t.Fatal(err)
	}
	merged := append(append([]lpm.Rule(nil), rs.Rules...), newRules...)
	mergedSet, err := lpm.NewRuleSet(24, merged)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, e2, mergedSet, 4000, 20)
	// The original engine is untouched.
	assertMatchesOracle(t, e, rs, 1000, 21)
}

func TestInsertAfterDelete(t *testing.T) {
	rs := randomRuleSet(t, 20, 100, 22)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	dead := rs.Rules[5]
	if err := e.Delete(dead.Prefix, dead.Len); err != nil {
		t.Fatal(err)
	}
	// Re-inserting the deleted rule must be allowed: tombstoned rules are
	// dropped from the rebuild.
	e2, err := e.Rebuild(lpm.Rule{Prefix: dead.Prefix, Len: dead.Len, Action: 777})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := e2.Lookup(dead.Prefix)
	if !ok {
		t.Fatal("no match after reinsert")
	}
	_ = got // the action may belong to a longer rule; oracle check below
	var survivors []lpm.Rule
	for _, r := range rs.Rules {
		if r != dead {
			survivors = append(survivors, r)
		}
	}
	survivors = append(survivors, lpm.Rule{Prefix: dead.Prefix, Len: dead.Len, Action: 777})
	survivorSet, err := lpm.NewRuleSet(20, survivors)
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, e2, survivorSet, 3000, 23)
}

func TestSRAMUsage(t *testing.T) {
	rs := randomRuleSet(t, 32, 800, 24)
	sram, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	bkt, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	us, ub := sram.SRAMUsage(), bkt.SRAMUsage()
	if us.Total != us.Model+us.RQArray || ub.Total != ub.Model+ub.RQArray {
		t.Fatal("totals inconsistent")
	}
	if ub.RQArray >= us.RQArray {
		t.Fatalf("bucketized RQ array (%d) not smaller than SRAM-only (%d)", ub.RQArray, us.RQArray)
	}
	if sram.DRAMFootprint() != 0 {
		t.Fatal("SRAM-only engine has DRAM footprint")
	}
	if bkt.DRAMFootprint() != bkt.Ranges().SizeBytes() {
		t.Fatal("bucketized DRAM footprint wrong")
	}
}

func TestVerify(t *testing.T) {
	rs := randomRuleSet(t, 24, 300, 25)
	for _, cfg := range []Config{quickSRAMOnly(), quickBucketed()} {
		e, err := Build(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVerifyAfterUpdates(t *testing.T) {
	rs := randomRuleSet(t, 20, 120, 26)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(rs.Rules[3].Prefix, rs.Rules[3].Len); err != nil {
		t.Fatal(err)
	}
	if err := e.ModifyAction(rs.Rules[7].Prefix, rs.Rules[7].Len, 999); err != nil {
		t.Fatal(err)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyCatchesCorruptedBound zeroes the final stage's error bounds of a
// built engine's model in place: Verify must see the model no longer covers
// its index, though every lookup still answers from the compiled plane.
func TestVerifyCatchesCorruptedBound(t *testing.T) {
	rs := randomRuleSet(t, 20, 300, 44)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	m := e.Model()
	last := m.Stages[len(m.Stages)-1]
	sabotaged := false
	for j := range last {
		if last[j].Err > 0 {
			last[j].Err = 0
			sabotaged = true
		}
	}
	if !sabotaged {
		t.Fatal("zero-error model: the fixture no longer has a bound to corrupt")
	}
	if err := e.Verify(); err == nil {
		t.Fatal("Verify passed with corrupted error bounds")
	}
}

func BenchmarkLookupSRAMOnly(b *testing.B) {
	rs := randomRuleSet(b, 32, 10000, 27)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		b.Fatal(err)
	}
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

func BenchmarkLookupBucketized(b *testing.B) {
	rs := randomRuleSet(b, 32, 10000, 28)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		b.Fatal(err)
	}
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

func BenchmarkBuild10K(b *testing.B) {
	rs := randomRuleSet(b, 32, 10000, 29)
	cfg := quickBucketed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(rs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
