// Package planetest hosts the parameterized differential-test matrix for the
// composable lookup-plane stack (DESIGN.md §14).
//
// Every exported lookup entry point in internal/core and internal/shard is
// one stack executor selected by plane.StackConfig, or a thin wrapper over it; the
// correctness contract — every variant answers exactly what the trie oracle
// answers, for every key including misses — is therefore a property of the
// (topology, stack) matrix, not of individual methods. This package checks
// that property once, parameterized over plane.Combos():
//
//   - FuzzStackVsOracle — the single differential fuzz target. It drives
//     arbitrary rule-sets, shard counts from one up, key streams and update
//     interleavings — with commit failures injected through
//     internal/fault — and checks every stack configuration against the
//     oracle after every step.
//   - TestStackMetamorphic — oracle-free cross-variant properties: all twelve
//     combos ({single,sharded} × {compiled,reference,quantized} ×
//     {cached,uncached}) agree with each other, batches equal single-key
//     answers, and batch answers are invariant under permutation, duplication
//     and repeat.
//   - TestLookupEntryPointsEquivalent — every exported lookup entry point on
//     a shared workload-calibrated corpus (hits and misses) versus the trie
//     oracle.
//   - TestCachedBatchZeroAllocs — pins the shared cached-batch miss-fill path
//     (core/stack.go lookupBatchCachedStack) at zero steady-state
//     allocations.
//
// The package lives outside internal/core and internal/shard so the matrix
// can exercise both topologies without an import cycle.
package planetest

import (
	"fmt"
	"math/rand"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
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

// SingleCombos returns the plane.Single half of the matrix (6 stacks).
func SingleCombos() []plane.Combo { return topologyCombos(plane.Single) }

// ShardedCombos returns the plane.Sharded half of the matrix (6 stacks).
func ShardedCombos() []plane.Combo { return topologyCombos(plane.Sharded) }

func topologyCombos(tp plane.Topology) []plane.Combo {
	var out []plane.Combo
	for _, cb := range plane.Combos() {
		if cb.Topology == tp {
			out = append(out, cb)
		}
	}
	return out
}

// Fixture pairs one single-topology engine with one sharded updatable so a
// test can route any plane.Combo to the matching entry point. The two sides
// are independent: the fuzz harness mutates them separately and checks each
// against its own oracle.
type Fixture struct {
	Width int
	Eng   *core.Engine            // plane.Single topology
	Upd   *shard.ShardedUpdatable // plane.Sharded topology
	cache *lcache.Cache           // backs the single-topology cached stacks
}

// NewFixture wires the two topologies; the single-engine result cache is
// fixture-private (shard-side caches belong to the updatable's cache plane).
func NewFixture(width int, eng *core.Engine, upd *shard.ShardedUpdatable) *Fixture {
	return &Fixture{Width: width, Eng: eng, Upd: upd, cache: lcache.New(lcache.MinBytes)}
}

// Lookup answers one key through the combo's single-key entry point.
func (f *Fixture) Lookup(cb plane.Combo, k keys.Value) Result {
	if cb.Topology == plane.Sharded {
		a, ok, _ := f.Upd.LookupStack(cb.Stack, k)
		return Result{a, ok}
	}
	c := f.cache
	if !cb.Stack.Cached {
		c = nil
	}
	a, ok, _ := f.Eng.LookupStack(cb.Stack, k, c)
	return Result{a, ok}
}

// LookupBatch answers a key slice through the combo's batch entry point.
func (f *Fixture) LookupBatch(cb plane.Combo, ks []keys.Value) []Result {
	out := make([]Result, len(ks))
	if cb.Topology == plane.Sharded {
		for i, r := range f.Upd.LookupBatchStack(cb.Stack, ks, nil) {
			out[i] = Result{r.Action, r.Matched}
		}
		return out
	}
	var c *lcache.Cache
	var epoch uint64
	if cb.Stack.Cached {
		c = f.cache
		epoch = f.Eng.CacheEpoch().Load()
	}
	for i, r := range f.Eng.LookupBatchStack(cb.Stack, ks, nil, cachesim.Null{}, c, epoch) {
		out[i] = Result{r.Action, r.Matched}
	}
	return out
}

// CheckCombos verifies every combo answers ks exactly like oracle, through
// both the batch and the single-key entry points. The batch carries every
// key twice so the second occurrence rides the intra-batch cache-hit path;
// cached stacks additionally probe each key twice single-key (fill, then
// hit). Returns the first mismatch as an error.
func (f *Fixture) CheckCombos(cs []plane.Combo, oracle *lpm.TrieMatcher, ks []keys.Value) error {
	doubled := append(append(make([]keys.Value, 0, 2*len(ks)), ks...), ks...)
	for _, cb := range cs {
		res := f.LookupBatch(cb, doubled)
		for i, k := range doubled {
			want, wantOK := oracle.Lookup(k)
			if res[i].Matched != wantOK || (wantOK && res[i].Action != want) {
				return fmt.Errorf("%s: batch[%d] key %v: (%d,%v), oracle (%d,%v)",
					cb, i, k, res[i].Action, res[i].Matched, want, wantOK)
			}
		}
		passes := 1
		if cb.Stack.Cached {
			passes = 2
		}
		for _, k := range ks {
			want, wantOK := oracle.Lookup(k)
			for pass := 0; pass < passes; pass++ {
				got := f.Lookup(cb, k)
				if got.Matched != wantOK || (wantOK && got.Action != want) {
					return fmt.Errorf("%s: key %v pass %d: (%d,%v), oracle (%d,%v)",
						cb, k, pass, got.Action, got.Matched, want, wantOK)
				}
			}
		}
	}
	return nil
}
