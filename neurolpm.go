// Package neurolpm is a library implementation of NeuroLPM (Rashelbach, de
// Paula, Silberstein — MICRO 2023): a multi-purpose Longest Prefix Match
// engine that replaces trie traversals and hash-table probes with inference
// in an RQRMI learned index.
//
// A query runs in three steps (paper Fig 3): the key is fed to a tiny
// hierarchy of compiled piecewise-linear submodels, which yields an index
// estimate plus a guaranteed error bound; a bounded binary search over the
// SRAM-resident RQ Array resolves the true entry; for rule-sets too large
// for SRAM, a single DRAM bucket fetch completes the match. Results are
// always exact — identical to a classic trie lookup — because error bounds
// are computed analytically against the deployed inference arithmetic.
//
// Quick start:
//
//	rules := []neurolpm.Rule{ ... }
//	rs, _ := neurolpm.NewRuleSet(32, rules)
//	engine, _ := neurolpm.Build(rs, neurolpm.DefaultConfig())
//	action, ok := engine.Lookup(neurolpm.IPv4Key(netip.MustParseAddr("10.1.2.3")))
//
// The examples/ directory exercises routing (IPv4 and IPv6), string pattern
// matching, k-means-style clustering and weighted load balancing — the five
// application classes of the paper's §3.1.
package neurolpm

import (
	"fmt"
	"net/netip"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/shard"
)

// Key is an LPM query key of up to 128 bits.
type Key = keys.Value

// Rule is an LPM rule: the Len most significant bits of Prefix are fixed,
// the rest are wildcards; Action is any 64-bit value.
type Rule = lpm.Rule

// RuleSet is a validated collection of rules over a common bit width.
type RuleSet = lpm.RuleSet

// Engine is a built NeuroLPM engine. See core.Engine for the full method
// set: Lookup, LookupMem (with DRAM-traffic accounting), Insert,
// ModifyAction, Delete, Rebuild (retrain over the live rules plus any added),
// SRAMUsage, Verify.
type Engine = core.Engine

// Config configures an engine build: bucket size (0 = SRAM-only design) and
// the RQRMI model's shape.
type Config = core.Config

// ModelConfig is the shape of the RQRMI model: stage widths, and how many
// cores train it. Training itself is a deterministic fit with no knobs.
type ModelConfig = rqrmi.Config

// Matcher is the minimal query interface every engine and baseline
// implements.
type Matcher = lpm.Matcher

// Updatable is an engine with the §6.5 update path: every write lands in
// place, so an acknowledged insert is always in the engine, and a shard whose
// engine it leaves overgrown is retrained and swapped before the write
// returns (core.Engine.Compact). It is the sharded updatable engine;
// NewUpdatable builds it at one shard, whose engine is Engine(0) and whose
// re-densify is Commit(0).
type Updatable = shard.ShardedUpdatable

// Chain evaluates several LPM tables sequentially — the policy-based
// routing pattern of App 2 (§3.1). Create with NewChain.
type Chain = core.Chain

// ChainStage is one table of a Chain.
type ChainStage = core.ChainStage

// NewRuleSet validates rules for a width-bit domain (1..128).
func NewRuleSet(width int, rules []Rule) (*RuleSet, error) {
	return lpm.NewRuleSet(width, rules)
}

// ParseRuleSet parses the textual rule format ("prefix/len action" lines).
func ParseRuleSet(width int, text string) (*RuleSet, error) {
	return lpm.ParseRuleSet(width, text)
}

// Build runs the offline preparation stage — LPM→range conversion, optional
// bucketization, RQRMI training — and returns a query-ready engine. The
// engine keeps rs as its rule table, with no copy, and never writes into it:
// the caller must not modify rs afterwards.
func Build(rs *RuleSet, cfg Config) (*Engine, error) {
	return core.Build(rs, cfg)
}

// DefaultConfig is the paper's evaluated configuration: 32-byte buckets and
// a 1/4/64 RQRMI model.
func DefaultConfig() Config { return core.DefaultConfig() }

// SRAMOnlyConfig disables bucketization: the whole range array is the RQ
// Array (the paper's §6 design).
func SRAMOnlyConfig() Config { return core.SRAMOnlyConfig() }

// DefaultModelConfig returns the paper's 1/4/64 RQRMI model configuration.
func DefaultModelConfig() ModelConfig { return rqrmi.DefaultConfig() }

// NewUpdatable builds an updatable engine over the rule-set: Build's
// preparation stage, at one shard. Like Build, it keeps rs as the engine's
// rule table, with no copy, and no update writes into it: the caller must not
// modify rs afterwards.
func NewUpdatable(rs *RuleSet, cfg Config) (*Updatable, error) {
	return shard.BuildUpdatable(rs, cfg, 1, 0)
}

// NewChain builds a multi-table lookup chain.
func NewChain(stages ...ChainStage) (*Chain, error) {
	return core.NewChain(stages...)
}

// KeyFromUint64 builds a key from an unsigned integer.
func KeyFromUint64(v uint64) Key { return keys.FromUint64(v) }

// KeyFromParts builds a 128-bit key from two 64-bit limbs.
func KeyFromParts(hi, lo uint64) Key { return keys.FromParts(hi, lo) }

// IPv4Key converts an IPv4 address into a 32-bit LPM key.
func IPv4Key(addr netip.Addr) Key {
	b := addr.As4()
	return keys.FromUint64(uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3]))
}

// IPv6Key converts an IPv6 address into a 128-bit LPM key.
func IPv6Key(addr netip.Addr) Key {
	b := addr.As16()
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(b[i])
		lo = lo<<8 | uint64(b[i+8])
	}
	return keys.FromParts(hi, lo)
}

// IPv4Rule builds a 32-bit rule from CIDR notation, e.g. "10.0.0.0/8".
func IPv4Rule(cidr string, action uint64) (Rule, error) {
	p, err := netip.ParsePrefix(cidr)
	if err != nil {
		return Rule{}, fmt.Errorf("neurolpm: %w", err)
	}
	if !p.Addr().Is4() {
		return Rule{}, fmt.Errorf("neurolpm: %q is not IPv4", cidr)
	}
	r := Rule{Prefix: IPv4Key(p.Masked().Addr()), Len: p.Bits(), Action: action}
	if err := r.Validate(32); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// IPv6Rule builds a 128-bit rule from CIDR notation, e.g. "2001:db8::/32".
func IPv6Rule(cidr string, action uint64) (Rule, error) {
	p, err := netip.ParsePrefix(cidr)
	if err != nil {
		return Rule{}, fmt.Errorf("neurolpm: %w", err)
	}
	if !p.Addr().Is6() || p.Addr().Is4In6() {
		return Rule{}, fmt.Errorf("neurolpm: %q is not IPv6", cidr)
	}
	r := Rule{Prefix: IPv6Key(p.Masked().Addr()), Len: p.Bits(), Action: action}
	if err := r.Validate(128); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// NewOracle builds the exact reference matcher (a unibit trie) for a
// rule-set — useful for validating engines and as a software fallback.
func NewOracle(rs *RuleSet) Matcher { return lpm.NewTrieMatcher(rs) }

// PrefixCover decomposes the inclusive key interval [lo, hi] of a width-bit
// domain into the minimal set of prefix rules covering exactly that
// interval. Range-shaped policies — clustering centroid cells, load-balancer
// weight slices (paper Apps 3 and 5) — are expressed as LPM rules this way.
func PrefixCover(width int, lo, hi Key, action uint64) ([]Rule, error) {
	return lpm.PrefixCover(width, lo, hi, action)
}
