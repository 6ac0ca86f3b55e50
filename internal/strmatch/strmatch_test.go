package strmatch

import (
	"math/rand"
	"strings"
	"testing"

	"neurolpm/internal/lpm"
)

func TestAhoCorasickBasic(t *testing.T) {
	a := NewAhoCorasick([]string{"he", "she", "his", "hers"})
	got := a.scan([]byte("ushers"))
	// Expected matches: "she"@1, "he"@2, "hers"@2.
	want := map[Match]bool{
		{Pos: 1, Pattern: 1}: true,
		{Pos: 2, Pattern: 0}: true,
		{Pos: 2, Pattern: 3}: true,
	}
	if len(got) != len(want) {
		t.Fatalf("matches = %+v", got)
	}
	for _, m := range got {
		if !want[m] {
			t.Fatalf("unexpected match %+v", m)
		}
	}
}

func TestAhoCorasickNoPatterns(t *testing.T) {
	a := NewAhoCorasick(nil)
	if got := a.scan([]byte("anything")); len(got) != 0 {
		t.Fatalf("matches = %+v", got)
	}
}

func TestAhoCorasickOverlapping(t *testing.T) {
	a := NewAhoCorasick([]string{"aa", "aaa"})
	got := a.scan([]byte("aaaa"))
	// "aa" at 0,1,2 and "aaa" at 0,1.
	if len(got) != 5 {
		t.Fatalf("got %d matches: %+v", len(got), got)
	}
}

// naiveScan is the brute-force oracle.
func naiveScan(patterns []string, text []byte) []Match {
	var out []Match
	for i := range text {
		for pi, p := range patterns {
			if i+len(p) <= len(text) && string(text[i:i+len(p)]) == p {
				out = append(out, Match{Pos: i, Pattern: pi})
			}
		}
	}
	return out
}

func TestAhoCorasickAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := "abcd"
	for trial := 0; trial < 30; trial++ {
		var patterns []string
		seen := map[string]bool{}
		for len(patterns) < 12 {
			l := 1 + rng.Intn(5)
			var b strings.Builder
			for i := 0; i < l; i++ {
				b.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			if !seen[b.String()] {
				seen[b.String()] = true
				patterns = append(patterns, b.String())
			}
		}
		text := make([]byte, 300)
		for i := range text {
			text[i] = alphabet[rng.Intn(len(alphabet))]
		}
		a := NewAhoCorasick(patterns)
		got := a.scan(text)
		want := naiveScan(patterns, text)
		gotSet := map[Match]bool{}
		for _, m := range got {
			if gotSet[m] {
				t.Fatalf("duplicate match %+v", m)
			}
			gotSet[m] = true
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d matches, want %d", trial, len(got), len(want))
		}
		for _, m := range want {
			if !gotSet[m] {
				t.Fatalf("trial %d: missing match %+v", trial, m)
			}
		}
	}
}

func TestDictionaryValidation(t *testing.T) {
	if _, err := NewDictionary(nil); err == nil {
		t.Error("empty dictionary accepted")
	}
	if _, err := NewDictionary([]string{""}); err == nil {
		t.Error("empty pattern accepted")
	}
	if _, err := NewDictionary([]string{"aaaaaaaaaaaaaaaaa"}); err == nil {
		t.Error("17-byte pattern accepted")
	}
	if _, err := NewDictionary([]string{"ab", "ab"}); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestDictionaryRules(t *testing.T) {
	d, err := NewDictionary([]string{"attack", "atta", "bomb"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Width() != 48 {
		t.Fatalf("width = %d", d.Width())
	}
	rs, err := d.Rules()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 3 {
		t.Fatalf("rules = %d", rs.Len())
	}
	h := d.PrefixLengthHistogram()
	if h[48] != 1 || h[32] != 2 {
		t.Fatalf("histogram = %v", h)
	}
}

// TestScanLPMEqualsAhoCorasick is the App 4 equivalence: the LPM-window
// scanner must return the same longest-pattern-at-offset answer as the
// Aho–Corasick reference.
func TestScanLPMEqualsAhoCorasick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	alphabet := "abc"
	for trial := 0; trial < 20; trial++ {
		var patterns []string
		seen := map[string]bool{}
		for len(patterns) < 15 {
			l := 1 + rng.Intn(6)
			var b strings.Builder
			for i := 0; i < l; i++ {
				b.WriteByte(alphabet[rng.Intn(len(alphabet))])
			}
			if !seen[b.String()] {
				seen[b.String()] = true
				patterns = append(patterns, b.String())
			}
		}
		d, err := NewDictionary(patterns)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := d.Rules()
		if err != nil {
			t.Fatal(err)
		}
		matcher := lpm.NewTrieMatcher(rs)
		text := make([]byte, 400)
		for i := range text {
			text[i] = alphabet[rng.Intn(len(alphabet))]
		}
		want := NewAhoCorasick(patterns).LongestAt(text)
		got := d.ScanLPM(matcher, text)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d offset %d: lpm %d, ac %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestScanLPMTextEnd(t *testing.T) {
	// A pattern longer than the remaining text must not match at the tail.
	d, err := NewDictionary([]string{"abcdef", "abc"})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := d.Rules()
	if err != nil {
		t.Fatal(err)
	}
	matcher := lpm.NewTrieMatcher(rs)
	got := d.ScanLPM(matcher, []byte("xabc"))
	if got[1] != 1 {
		t.Fatalf("offset 1 = %d, want pattern 1 (abc)", got[1])
	}
	if got[0] != -1 || got[2] != -1 {
		t.Fatalf("spurious matches: %v", got)
	}
}

func TestScanLPMNULPadding(t *testing.T) {
	// A pattern ending in NUL bytes must not be fabricated by window
	// padding at the text end.
	d, err := NewDictionary([]string{"ab\x00"})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := d.Rules()
	if err != nil {
		t.Fatal(err)
	}
	matcher := lpm.NewTrieMatcher(rs)
	got := d.ScanLPM(matcher, []byte("ab"))
	if got[0] != -1 {
		t.Fatalf("padded window fabricated a match: %v", got)
	}
	got = d.ScanLPM(matcher, []byte("ab\x00"))
	if got[0] != 0 {
		t.Fatalf("real NUL pattern missed: %v", got)
	}
}

func TestSortedLengths(t *testing.T) {
	d, err := NewDictionary([]string{"aaa", "b", "cc", "dd"})
	if err != nil {
		t.Fatal(err)
	}
	got := d.SortedLengths()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("lengths = %v", got)
	}
}

func BenchmarkAhoCorasickScan(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var patterns []string
	for i := 0; i < 500; i++ {
		l := 2 + rng.Intn(6)
		p := make([]byte, l)
		for j := range p {
			p[j] = byte('a' + rng.Intn(26))
		}
		patterns = append(patterns, string(p))
	}
	a := NewAhoCorasick(patterns)
	text := make([]byte, 64*1024)
	for i := range text {
		text[i] = byte('a' + rng.Intn(26))
	}
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.scan(text)
	}
}
