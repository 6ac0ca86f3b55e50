// Package planetest hosts the parameterized differential-test matrix for the
// lookup pipeline (DESIGN.md §14).
//
// Every exported lookup entry point in internal/core and internal/shard runs
// one pipeline — compiled inference, bounded search, the bucket record's
// answer — on one of two topologies: a single engine, or the sharded router
// over engines. The correctness contract — every entry point answers exactly
// what the trie oracle answers, for every key including misses — is
// therefore a property of the topology, checked once over Topologies():
//
//   - FuzzStackVsOracle — the single differential fuzz target. It drives
//     arbitrary rule-sets, shard counts from one up, key streams and update
//     interleavings — with absorb refusals and rebuild failures injected
//     through internal/fault — and checks both topologies against the oracle
//     after every step.
//   - TestStackMetamorphic — oracle-free cross-variant properties: both
//     topologies agree with each other, batches equal single-key answers, and
//     batch answers are invariant under permutation, duplication and repeat.
//   - TestLookupEntryPointsEquivalent — every exported lookup entry point on
//     a shared workload-calibrated corpus (hits and misses) versus the trie
//     oracle.
//   - TestEngineZeroAllocs and TestShardedBatchZeroAllocs — pin the engine's
//     single-key and batch lookups and the sharded batch into a caller's dst
//     at zero steady-state allocations.
//
// The package lives outside internal/core and internal/shard so the matrix
// can exercise both topologies without an import cycle.
package planetest

import (
	"fmt"
	"math/rand"

	"neurolpm/internal/core"
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

// Result is the topology-neutral answer shape the matrix compares.
type Result struct {
	Action  uint64
	Matched bool
}

// Topology says whether a lookup runs on one engine or fans out across the
// sharded router.
type Topology uint8

const (
	Single Topology = iota
	Sharded
)

// String returns the stable spelling used in test names.
func (t Topology) String() string {
	if t == Sharded {
		return "sharded"
	}
	return "single"
}

// Topologies enumerates the matrix: one engine, then the sharded router.
func Topologies() []Topology { return []Topology{Single, Sharded} }

// Fixture pairs one single-topology engine with one sharded updatable so a
// test can route a Topology to the matching entry point. The two sides are
// independent: the fuzz harness mutates them separately and checks each
// against its own oracle.
type Fixture struct {
	Width int
	Eng   *core.Engine            // Single topology
	Upd   *shard.ShardedUpdatable // Sharded topology
}

// NewFixture wires the two topologies.
func NewFixture(width int, eng *core.Engine, upd *shard.ShardedUpdatable) *Fixture {
	return &Fixture{Width: width, Eng: eng, Upd: upd}
}

// Lookup answers one key through the topology's single-key entry point.
func (f *Fixture) Lookup(tp Topology, k keys.Value) Result {
	if tp == Sharded {
		a, ok := f.Upd.Lookup(k)
		return Result{a, ok}
	}
	a, ok := f.Eng.Lookup(k)
	return Result{a, ok}
}

// LookupBatch answers a key slice through the topology's batch entry point.
func (f *Fixture) LookupBatch(tp Topology, ks []keys.Value) []Result {
	res := f.Upd.LookupBatch // shard.Result is core.BatchResult
	if tp == Single {
		res = func(ks []keys.Value) []core.BatchResult { return f.Eng.LookupBatch(ks, nil) }
	}
	out := make([]Result, len(ks))
	for i, r := range res(ks) {
		out[i] = Result{r.Action, r.Matched}
	}
	return out
}

// Check verifies the topology answers ks exactly like oracle, through both
// the batch and the single-key entry points. The batch carries every key
// twice, so a key's answer is checked in two block positions. Returns the
// first mismatch as an error.
func (f *Fixture) Check(tp Topology, oracle *lpm.TrieMatcher, ks []keys.Value) error {
	doubled := append(append(make([]keys.Value, 0, 2*len(ks)), ks...), ks...)
	res := f.LookupBatch(tp, doubled)
	for i, k := range doubled {
		want, wantOK := oracle.Lookup(k)
		if res[i].Matched != wantOK || (wantOK && res[i].Action != want) {
			return fmt.Errorf("%s: batch[%d] key %v: (%d,%v), oracle (%d,%v)",
				tp, i, k, res[i].Action, res[i].Matched, want, wantOK)
		}
	}
	for _, k := range ks {
		want, wantOK := oracle.Lookup(k)
		if got := f.Lookup(tp, k); got.Matched != wantOK || (wantOK && got.Action != want) {
			return fmt.Errorf("%s: key %v: (%d,%v), oracle (%d,%v)",
				tp, k, got.Action, got.Matched, want, wantOK)
		}
	}
	return nil
}
