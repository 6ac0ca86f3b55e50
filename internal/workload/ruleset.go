// Package workload generates the synthetic rule-sets and query traces the
// evaluation runs on, substituting for the paper's proprietary inputs
// (RIPE / RouteViews / Stanford forwarding tables and CAIDA packet traces —
// see DESIGN.md §2). Generators are calibrated to the published prefix-length
// distributions and produce deterministic output for a given seed.
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// Profile describes a rule-set family.
type Profile struct {
	Name  string
	Width int
	// LengthWeights is the prefix-length histogram to sample from
	// (unnormalized).
	LengthWeights map[int]float64
	// Clusters is the number of distinct address regions rules concentrate
	// in (real tables are allocation-clustered, which is what gives range
	// arrays their skewed layout).
	Clusters int
	// Actions is the number of distinct action values (small for routing —
	// the low action entropy the paper notes packet-forwarding engines
	// exploit — and large for clustering workloads).
	Actions int
	// RunLength is the expected number of *adjacent* same-length prefixes
	// emitted in a row (BGP deaggregation: an allocation announced as
	// consecutive /24s). Runs keep the LPM→range expansion near the ~18%
	// the paper measures on production tables (§10.5); fully scattered
	// prefixes would expand by ~2×. Zero disables runs.
	RunLength int
}

// RIPE is calibrated to BGP-like forwarding tables from the RIPE RIS
// archive: mass concentrated at /24 with a secondary mode at /16 (Fig 2).
func RIPE() Profile {
	return Profile{
		Name:  "ripe",
		Width: 32,
		LengthWeights: map[int]float64{
			8: 0.4, 10: 0.3, 11: 0.4, 12: 0.7, 13: 1.0, 14: 1.5, 15: 1.6,
			16: 9.0, 17: 2.3, 18: 3.5, 19: 4.5, 20: 5.5, 21: 5.0, 22: 9.0,
			23: 7.5, 24: 53.0, 25: 0.3, 26: 0.2, 27: 0.2, 28: 0.2, 29: 0.3,
			30: 0.2, 32: 0.7,
		},
		Clusters:  4000,
		Actions:   64,
		RunLength: 4,
	}
}

// routeViews mirrors the University of Oregon Route Views tables: the same
// BGP shape as RIPE with slightly more specifics.
func routeViews() Profile {
	return Profile{
		Name:  "routeviews",
		Width: 32,
		LengthWeights: map[int]float64{
			8: 0.5, 9: 0.2, 10: 0.3, 11: 0.5, 12: 0.8, 13: 1.1, 14: 1.7,
			15: 1.8, 16: 8.0, 17: 2.5, 18: 3.8, 19: 5.0, 20: 6.0, 21: 5.5,
			22: 10.0, 23: 8.0, 24: 50.0, 25: 0.6, 26: 0.5, 27: 0.4, 28: 0.5,
			29: 0.8, 30: 0.6, 31: 0.1, 32: 1.5,
		},
		Clusters:  6000,
		Actions:   128,
		RunLength: 4,
	}
}

// stanford is calibrated to the Stanford backbone tables: a campus network
// with heavier short-prefix usage, host routes, and far fewer rules.
func stanford() Profile {
	return Profile{
		Name:  "stanford",
		Width: 32,
		LengthWeights: map[int]float64{
			8: 1.0, 10: 1.0, 12: 2.0, 14: 3.0, 15: 2.0, 16: 14.0, 17: 3.0,
			18: 5.0, 19: 6.0, 20: 8.0, 21: 7.0, 22: 9.0, 23: 7.0, 24: 22.0,
			25: 1.0, 26: 1.5, 27: 2.0, 28: 2.5, 29: 2.0, 30: 1.5, 31: 0.5,
			32: 7.0,
		},
		Clusters:  300,
		Actions:   32,
		RunLength: 3,
	}
}

// Snort is calibrated to Fig 2's 48-bit string-matching rule-sets derived
// from NIDS signatures: prefix lengths spread broadly across 8..48 (driven
// by pattern lengths), with none of routing's /24 concentration — the case
// that defeats prefix-length-specialized engines.
func Snort() Profile {
	w := map[int]float64{}
	for l := 8; l <= 48; l++ {
		// Broad plateau with mild modes at byte boundaries.
		w[l] = 2.0
		if l%8 == 0 {
			w[l] = 5.0
		}
	}
	return Profile{Name: "snort", Width: 48, LengthWeights: w, Clusters: 20000, Actions: 1 << 16, RunLength: 2}
}

// IPv6 is a 128-bit forwarding profile (allocation-driven lengths 16..64,
// mode at /48) for the bit-width scaling experiments (§6.4).
func IPv6() Profile {
	return Profile{
		Name:  "ipv6",
		Width: 128,
		LengthWeights: map[int]float64{
			16: 1.0, 20: 1.0, 24: 2.0, 28: 2.5, 32: 12.0, 36: 4.0, 40: 6.0,
			44: 6.0, 48: 40.0, 52: 3.0, 56: 6.0, 60: 2.0, 64: 14.0,
		},
		Clusters:  3000,
		Actions:   64,
		RunLength: 8,
	}
}

// Profiles returns the evaluation families keyed by name.
func Profiles() map[string]Profile {
	out := map[string]Profile{}
	for _, p := range []Profile{RIPE(), routeViews(), stanford(), Snort(), IPv6()} {
		out[p.Name] = p
	}
	return out
}

// Generate produces a deterministic rule-set of n rules from the profile.
func Generate(p Profile, n int, seed int64) (*lpm.RuleSet, error) {
	if p.Width < 1 || p.Width > 128 {
		return nil, fmt.Errorf("workload: invalid width %d", p.Width)
	}
	if n < 1 {
		return nil, fmt.Errorf("workload: invalid rule count %d", n)
	}
	rng := rand.New(rand.NewSource(seed))
	sampler, err := newLengthSampler(p.LengthWeights)
	if err != nil {
		return nil, err
	}
	// Cluster bases: allocation blocks rules concentrate under. Base length
	// is the shortest plausible allocation (8 for v4-like, 16 for wider).
	baseLen := 8
	if p.Width > 32 {
		baseLen = 16
	}
	clusters := make([]keys.Value, p.Clusters)
	for i := range clusters {
		clusters[i] = randBits(rng, p.Width, baseLen)
	}
	// Zipf-distributed cluster popularity: a few hot allocations hold most
	// rules, as in real tables.
	zipf := rand.NewZipf(rng, 1.3, 4, uint64(p.Clusters-1))

	type pl struct {
		p keys.Value
		l int
	}
	seen := make(map[pl]struct{}, n)
	rules := make([]lpm.Rule, 0, n)
	attempts := 0
	// Run state: deaggregated allocations emit adjacent same-length
	// prefixes (e.g. consecutive /24s), which keeps the LPM→range expansion
	// near production levels (§10.5).
	var runPrefix keys.Value
	var runLen int
	runContinue := 0.0
	if p.RunLength > 1 {
		runContinue = 1 - 1/float64(p.RunLength)
	}
	var runAction uint64
	for len(rules) < n {
		attempts++
		if attempts > 60*n {
			return nil, fmt.Errorf("workload: cannot reach %d distinct rules (profile %q too narrow)", n, p.Name)
		}
		var prefix keys.Value
		var length int
		if runLen > 0 && rng.Float64() < runContinue {
			// Continue the run with the next adjacent prefix.
			length = runLen
			stride := keys.FromUint64(1).Shl(uint(p.Width - length))
			next := runPrefix.Add(stride)
			if next.IsZero() || !keys.NewDomain(p.Width).Contains(next) {
				runLen = 0
				continue
			}
			prefix = next
		} else {
			length = sampler.sample(rng)
			if length > p.Width {
				length = p.Width
			}
			if length <= baseLen {
				prefix = truncate(randBits(rng, p.Width, length), p.Width, length)
			} else {
				c := clusters[zipf.Uint64()]
				// Keep the cluster's top bits, randomize the rest up to length.
				low := randBits(rng, p.Width, p.Width) // random filler
				mask := suffixMask(p.Width, baseLen)
				prefix = truncate(c.And(mask.Not()).Or(low.And(mask)), p.Width, length)
			}
			runAction = uint64(rng.Intn(p.Actions))
		}
		key := pl{prefix, length}
		if _, dup := seen[key]; dup {
			runLen = 0
			continue
		}
		seen[key] = struct{}{}
		runPrefix, runLen = prefix, length
		// Runs share a next hop with occasional divergence, preserving the
		// low action entropy of forwarding tables.
		if rng.Float64() < 0.2 {
			runAction = uint64(rng.Intn(p.Actions))
		}
		rules = append(rules, lpm.Rule{Prefix: prefix, Len: length, Action: runAction})
	}
	return lpm.OwnRuleSet(p.Width, rules) // rules is ours alone: no copy
}

// lengthSampler draws prefix lengths from a weighted histogram.
type lengthSampler struct {
	lengths []int
	cum     []float64
	total   float64
}

func newLengthSampler(weights map[int]float64) (*lengthSampler, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("workload: empty length distribution")
	}
	s := &lengthSampler{}
	for l := range weights {
		s.lengths = append(s.lengths, l)
	}
	sort.Ints(s.lengths)
	for _, l := range s.lengths {
		w := weights[l]
		if w < 0 {
			return nil, fmt.Errorf("workload: negative weight for length %d", l)
		}
		s.total += w
		s.cum = append(s.cum, s.total)
	}
	if s.total <= 0 {
		return nil, fmt.Errorf("workload: zero-mass length distribution")
	}
	return s, nil
}

func (s *lengthSampler) sample(rng *rand.Rand) int {
	t := rng.Float64() * s.total
	i := sort.SearchFloat64s(s.cum, t)
	if i >= len(s.lengths) {
		i = len(s.lengths) - 1
	}
	return s.lengths[i]
}

// randBits returns a random width-bit value whose low width−bits bits are
// zeroed when bits < width (a random prefix of the given length).
func randBits(rng *rand.Rand, width, bits int) keys.Value {
	var v keys.Value
	if width <= 64 {
		v = keys.FromUint64(rng.Uint64() & (uint64(1)<<(width-1)<<1 - 1))
	} else {
		v = keys.FromParts(rng.Uint64(), rng.Uint64())
		v = v.Shr(uint(128 - width))
	}
	return truncate(v, width, bits)
}

// truncate zeroes all but the top `length` bits of a width-bit value.
func truncate(v keys.Value, width, length int) keys.Value {
	if length >= width {
		return v
	}
	return v.Shr(uint(width - length)).Shl(uint(width - length))
}

// suffixMask returns a width-bit mask with the low width−prefixLen bits set.
func suffixMask(width, prefixLen int) keys.Value {
	if prefixLen >= width {
		return keys.Value{}
	}
	return keys.MaxValue(width - prefixLen)
}
