// Package planetest hosts the parameterized differential-test harness for the
// lookup pipeline (DESIGN.md §14).
//
// Every exported lookup entry point in internal/core and internal/shard runs
// one pipeline — compiled inference, bounded search, the bucket record's
// answer — and the one updatable type, shard.ShardedUpdatable, runs it behind
// a router whose degenerate case is one shard. The correctness contract —
// every entry point answers exactly what the trie oracle answers, for every
// key including misses — is therefore checked once, with the shard count as
// the parameter (ShardCounts):
//
//   - FuzzStackVsOracle — the single differential fuzz target. It drives
//     arbitrary rule-sets, shard counts 1/2/4/8, both engine kinds, key
//     streams and update interleavings — with forced compactions and
//     rebuild failures injected through internal/fault — and checks the
//     updatable engine against the oracle after every step.
//   - TestStackMetamorphic — oracle-free cross-variant properties: every
//     shard count answers alike, batches equal single-key answers, and batch
//     answers are invariant under permutation, duplication and repeat.
//   - TestLookupEntryPointsEquivalent — every exported lookup entry point on
//     a shared workload-calibrated corpus (hits and misses) versus the trie
//     oracle.
//   - TestEngineZeroAllocs and TestShardedBatchZeroAllocs — pin the engine's
//     single-key and batch lookups and the sharded batch into a caller's dst
//     at zero steady-state allocations.
//   - TestSweepEveryKey — Sweep: every key of a width-20 domain through both
//     entry points and the compiled search, at every count of ShardCounts:
//     built, after updates, after a replicated insert is deleted again, and
//     after every shard is committed.
//
// The package lives outside internal/core and internal/shard so the harness
// can exercise both without an import cycle.
package planetest

import (
	"fmt"
	"math/rand"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/shard"
)

// FuzzModel is deliberately tiny: each fuzz execution trains a fresh model
// per shard, so the budget per iteration must stay in the low milliseconds.
func FuzzModel() rqrmi.Config {
	cfg := rqrmi.DefaultConfig()
	cfg.StageWidths = []int{1, 2, 4}
	return cfg
}

// QuickModel is the non-fuzz test configuration: stages sized for ~1K-rule
// sets, so most submodels have something to answer for.
func QuickModel() rqrmi.Config {
	cfg := rqrmi.DefaultConfig()
	cfg.StageWidths = []int{1, 2, 8}
	return cfg
}

// DeriveRules decodes raw fuzz bytes into a valid width-bit rule-set:
// 6 bytes per rule (4 prefix, 1 length, 1 action), wildcard bits masked,
// duplicates dropped, capped at 48 rules so training stays fast.
func DeriveRules(width int, data []byte) []lpm.Rule {
	type pl struct {
		p keys.Value
		l int
	}
	seen := map[pl]bool{}
	var rules []lpm.Rule
	for i := 0; i+6 <= len(data) && len(rules) < 48; i += 6 {
		length := 1 + int(data[i+4])%width
		raw := uint64(data[i])<<24 | uint64(data[i+1])<<16 | uint64(data[i+2])<<8 | uint64(data[i+3])
		prefix := keys.FromUint64(raw).And(keys.MaxValue(width))
		prefix = prefix.Shr(uint(width - length)).Shl(uint(width - length))
		k := pl{prefix, length}
		if seen[k] {
			continue
		}
		seen[k] = true
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: uint64(data[i+5]) + 1})
	}
	return rules
}

// RandomRules returns n distinct random rules over width-bit keys with
// uniform prefix lengths in [1,width].
func RandomRules(width, n int, seed int64) []lpm.Rule {
	rng := rand.New(rand.NewSource(seed))
	type pl struct {
		p keys.Value
		l int
	}
	seen := map[pl]bool{}
	rules := make([]lpm.Rule, 0, n)
	for len(rules) < n {
		length := 1 + rng.Intn(width)
		shift := uint(width - length)
		prefix := keys.FromUint64(rng.Uint64()).And(keys.MaxValue(width)).Shr(shift).Shl(shift)
		k := pl{prefix, length}
		if seen[k] {
			continue
		}
		seen[k] = true
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: uint64(rng.Intn(1<<16)) + 1})
	}
	return rules
}

// Corpus returns the boundary keys (Low/High) of every rule plus n random
// keys drawn from rng — random keys over a sparse rule space are mostly
// misses, so the corpus always covers both match outcomes.
func Corpus(width int, rules []lpm.Rule, n int, rng *rand.Rand) []keys.Value {
	ks := make([]keys.Value, 0, 2*len(rules)+n)
	for _, r := range rules {
		ks = append(ks, r.Low(width), r.High(width))
	}
	for i := 0; i < n; i++ {
		ks = append(ks, keys.FromUint64(rng.Uint64()).And(keys.MaxValue(width)))
	}
	return ks
}

// Result is the answer shape the harness compares.
type Result struct {
	Action  uint64
	Matched bool
}

// ShardCounts is the parameter of every test in the package but the fuzz
// target (which draws 1, 2, 4 or 8): one shard — no routing bits, the
// degenerate case the daemon serves by default — and four.
var ShardCounts = []int{1, 4}

// Fixture is the updatable engine a test drives, seen through the answer
// shape the harness compares.
type Fixture struct{ Upd *shard.ShardedUpdatable }

// Lookup answers one key through the single-key entry point.
func (f *Fixture) Lookup(k keys.Value) Result {
	a, ok := f.Upd.Lookup(k)
	return Result{a, ok}
}

// LookupBatch answers a key slice through the batch entry point.
func (f *Fixture) LookupBatch(ks []keys.Value) []Result {
	out := make([]Result, len(ks))
	for i, r := range f.Upd.LookupBatch(ks) {
		out[i] = Result{r.Action, r.Matched}
	}
	return out
}

// Check verifies the engine answers ks exactly like oracle, through both the
// batch and the single-key entry points. The batch carries every key twice,
// so a key's answer is checked in two block positions. Returns the first
// mismatch as an error.
func (f *Fixture) Check(oracle *lpm.TrieMatcher, ks []keys.Value) error {
	n := f.Upd.Shards()
	doubled := append(append(make([]keys.Value, 0, 2*len(ks)), ks...), ks...)
	res := f.LookupBatch(doubled)
	for i, k := range doubled {
		want, wantOK := oracle.Lookup(k)
		if res[i].Matched != wantOK || (wantOK && res[i].Action != want) {
			return fmt.Errorf("%d shards: batch[%d] key %v: (%d,%v), oracle (%d,%v)",
				n, i, k, res[i].Action, res[i].Matched, want, wantOK)
		}
	}
	for _, k := range ks {
		want, wantOK := oracle.Lookup(k)
		if got := f.Lookup(k); got.Matched != wantOK || (wantOK && got.Action != want) {
			return fmt.Errorf("%d shards: key %v: (%d,%v), oracle (%d,%v)",
				n, k, got.Action, got.Matched, want, wantOK)
		}
	}
	return nil
}
