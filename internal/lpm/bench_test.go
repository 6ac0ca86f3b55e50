package lpm_test

import (
	"testing"

	"neurolpm/internal/lpm"
	"neurolpm/internal/workload"
)

// BenchmarkParseRuleSet is lpmserve's start-up parse on the repository
// benchmark's rule file: 870 K ripe rules (seed 3), formatted as the file
// lpmgen writes. Run with -benchmem: the allocation count must not grow with
// the rule count (TestParseRuleSetAllocs holds it).
func BenchmarkParseRuleSet(b *testing.B) {
	rs, err := workload.Generate(workload.RIPE(), 870000, 3)
	if err != nil {
		b.Fatal(err)
	}
	text := rs.Format()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := lpm.ParseRuleSet(rs.Width, text)
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != rs.Len() {
			b.Fatalf("parsed %d rules, formatted %d", got.Len(), rs.Len())
		}
	}
}
