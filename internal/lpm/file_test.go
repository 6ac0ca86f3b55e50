package lpm

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestReadRuleFileMatchesParse holds ReadRuleFile to ParseRuleSet: written
// to a file, every text gives the same rules, or the same error on the same
// line. The texts are FuzzParseRule's seeds, plus the cases only a chunked
// read meets: lines cut by a chunk boundary (CRLF split between its two
// bytes included), an error several chunks in, and lines longer than the
// buffer.
func TestReadRuleFileMatchesParse(t *testing.T) {
	type tc struct {
		name  string
		width int
		text  string
	}
	var cases []tc
	for i, s := range parseSeeds {
		cases = append(cases, tc{"seed-" + string(rune('a'+i)), 1 + int(s.width)%128, s.text})
	}
	big := randomRuleSet(rand.New(rand.NewSource(3)), 32, 20000).Format()
	lines := strings.SplitAfter(big, "\n")
	// pad is a comment line of n bytes, newline included.
	pad := func(n int) string { return "#" + strings.Repeat("x", n-2) + "\n" }
	straddle := pad(readChunk-7) + "0xc0a80000/16 7\n" + big
	crlf := pad(readChunk-16) + "0xc0a80000/16 7\r\n0x0a000000/8 1\r\n"
	bad := slices.Clone(lines)
	bad[len(bad)/2] = "bogus\n"
	cases = append(cases,
		tc{"crlf", 32, "0x80000000/1 1\r\n\r\n0x40000000/2 2\r\n"},
		tc{"no-final-newline", 32, "0x80000000/1 1\n0x40000000/2 2"},
		tc{"comments-and-blanks", 32, "# head\n\n   \n\t# indented\n0x80000000/1 1\n\n# tail"},
		tc{"whole-set", 32, big},
		tc{"whole-set-no-final-newline", 32, strings.TrimSuffix(big, "\n")},
		tc{"line-across-chunk", 32, straddle},
		tc{"crlf-across-chunk", 32, crlf},
		tc{"error-chunks-in", 32, strings.Join(bad, "")},
		tc{"duplicate-chunks-in", 32, big + lines[len(lines)/2]},
		tc{"comment-longer-than-buffer", 32, "0x80000000/1 1\n#" + strings.Repeat("y", 2*readChunk) + "\n0x40000000/2 2\n"},
		tc{"rule-longer-than-buffer", 32, "0x80000000/1 1\n" + strings.Repeat(" ", 3*readChunk) + "0x40000000/2 2"},
		tc{"bad-width", 0, "0x80/1 1\n"},
	)
	dir := t.TempDir()
	for i, c := range cases {
		path := filepath.Join(dir, strings.Repeat("r", i+1))
		if err := os.WriteFile(path, []byte(c.text), 0o600); err != nil {
			t.Fatal(err)
		}
		want, wantErr := ParseRuleSet(c.width, c.text)
		got, err := ReadRuleFile(c.width, path)
		if (err != nil) != (wantErr != nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("%s: ReadRuleFile err %v, ParseRuleSet err %v", c.name, err, wantErr)
			continue
		}
		if err == nil && (got.Width != want.Width || !slices.Equal(got.Rules, want.Rules)) {
			t.Errorf("%s: ReadRuleFile gave %d rules, ParseRuleSet %d, or they differ", c.name, got.Len(), want.Len())
		}
	}
	if _, err := ReadRuleFile(32, filepath.Join(dir, "missing")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: err %v, want ErrNotExist", err)
	}
}

// TestReadRuleFileAllocs pins ReadRuleFile to a fixed, small number of
// allocations whatever the file's length — the file, the buffer, the rule
// slice and the rule-set — so a per-line or per-chunk allocation, or a copy
// of the whole text, fails here.
func TestReadRuleFileAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var allocs []float64
	for _, n := range []int{10000, 100000} {
		path := filepath.Join(t.TempDir(), "rules.txt")
		if err := os.WriteFile(path, []byte(randomRuleSet(rng, 32, n).Format()), 0o600); err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(2, func() {
			if _, err := ReadRuleFile(32, path); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] > 6 {
		t.Fatalf("ReadRuleFile allocations at 10 000 and 100 000 rules: %v, want the same count, at most 6", allocs)
	}
}
