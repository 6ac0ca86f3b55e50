//go:build !race

package workload

import (
	"slices"
	"testing"
	"time"

	"neurolpm/internal/bucket"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
)

// raceEnabled gates the 10M canary: the race detector's ~10x slowdown and
// shadow memory would blow both the wall-clock budget and the container, so
// the canary only runs in non-race test binaries (CI runs it as a dedicated
// non-race step; the regular test job uses -race and compiles this out).
const raceEnabled = false

// TestScaleCanary10M pins the end-to-end asymptotics of rule-set
// construction: Generate → NewRuleSet (validate+sort+dedup) → Format →
// ParseRuleSet (the rule file lpmserve reads) → range expansion → bucket
// directory at 10M rules must finish inside a generous wall-clock budget.
// Before NewRuleSet dropped its map-keyed duplicate scan for a sort-adjacent
// one, this path spent whole seconds hashing 16-byte struct keys; an
// accidental O(n²) anywhere in the chain, the file path included, times out rather
// than silently freezing a paper-scale run (the CLAUDE.md incident).
func TestScaleCanary10M(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-rule canary skipped in -short mode")
	}
	const n = 10_000_000
	const budget = 120 * time.Second
	start := time.Now()

	rs, err := Generate(RIPE(), n, 404)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() < n*9/10 {
		t.Fatalf("generator fell far short of scale: %d rules of %d requested", rs.Len(), n)
	}
	genDone := time.Since(start)

	// The rest of the chain runs on the parsed copy, so the generated set is
	// garbage by the time the range array is built.
	text := rs.Format()
	parsed, err := lpm.ParseRuleSet(rs.Width, text)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(parsed.Rules, rs.Rules) {
		t.Fatal("Format → ParseRuleSet changed the rule-set at 10M rules")
	}
	rs = parsed
	parseDone := time.Since(start) - genDone

	ra, err := ranges.Convert(rs)
	if err != nil {
		t.Fatal(err)
	}
	// Expansion factor stays near the paper's ~18% at full scale too —
	// a generator drift that only shows past the calibration tests' sizes
	// would quietly inflate every downstream footprint number.
	factor := float64(ra.Len()) / float64(rs.Len())
	if factor > 1.6 {
		t.Errorf("range expansion %.2fx at 10M rules (calibrated ≈1.18x)", factor)
	}

	dir, err := bucket.Build(ra, 8)
	if err != nil {
		t.Fatal(err)
	}
	if dir.Len() == 0 {
		t.Fatal("empty bucket directory at 10M rules")
	}

	elapsed := time.Since(start)
	t.Logf("10M canary: generate %v, format+parse %v, total %v (%d rules → %d ranges → %d buckets)",
		genDone.Round(time.Millisecond), parseDone.Round(time.Millisecond), elapsed.Round(time.Millisecond),
		rs.Len(), ra.Len(), dir.Len())
	if elapsed > budget {
		t.Fatalf("10M-rule construction took %v, budget %v — superlinear regression?", elapsed, budget)
	}
}
