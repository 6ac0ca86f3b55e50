package ranges_test

import (
	"testing"

	"neurolpm/internal/ranges"
	"neurolpm/internal/workload"
)

// BenchmarkConvert is the range conversion of every engine build on the
// repository benchmark's rules: 870 K ripe rules (seed 3), the set
// BenchmarkParseRuleSet parses. Run with -benchmem: Convert allocates its
// two columns once, at their exact size (TestConvertExactSize holds it).
func BenchmarkConvert(b *testing.B) {
	rs, err := workload.Generate(workload.RIPE(), 870000, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ranges.Convert(rs); err != nil {
			b.Fatal(err)
		}
	}
}
