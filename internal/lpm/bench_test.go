package lpm_test

import (
	"os"
	"path/filepath"
	"testing"

	"neurolpm/internal/lpm"
	"neurolpm/internal/workload"
)

// BenchmarkParseRuleSet parses the repository benchmark's rule file from
// memory: 870 K ripe rules (seed 3), formatted as the file lpmgen writes. Run
// with -benchmem: the allocation count must not grow with the rule count
// (TestParseRuleSetAllocs holds it).
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

// BenchmarkReadRuleFile is lpmserve's start-up read of the same file, from
// disk: the newline count, then the chunked parse. Run with -benchmem: it
// allocates the rules and a fixed few objects, never the text
// (TestReadRuleFileAllocs holds it).
func BenchmarkReadRuleFile(b *testing.B) {
	rs, err := workload.Generate(workload.RIPE(), 870000, 3)
	if err != nil {
		b.Fatal(err)
	}
	text := rs.Format()
	path := filepath.Join(b.TempDir(), "rules.txt")
	if err := os.WriteFile(path, []byte(text), 0o600); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := lpm.ReadRuleFile(rs.Width, path)
		if err != nil {
			b.Fatal(err)
		}
		if got.Len() != rs.Len() {
			b.Fatalf("read %d rules, formatted %d", got.Len(), rs.Len())
		}
	}
}
