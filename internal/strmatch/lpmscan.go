package strmatch

import (
	"fmt"
	"sort"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// Dictionary is a set of byte-string patterns compiled for LPM matching.
type Dictionary struct {
	patterns [][]byte
	maxLen   int
	width    int
}

// NewDictionary validates and stores the patterns. Pattern bytes are
// left-aligned into a window of maxLen bytes; the LPM key width is
// 8·maxLen, so patterns may be at most 16 bytes (128-bit keys). Duplicates
// are rejected; empty patterns are rejected.
func NewDictionary(patterns []string) (*Dictionary, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("strmatch: empty dictionary")
	}
	seen := map[string]bool{}
	d := &Dictionary{}
	for _, p := range patterns {
		if p == "" {
			return nil, fmt.Errorf("strmatch: empty pattern")
		}
		if len(p) > 16 {
			return nil, fmt.Errorf("strmatch: pattern %q exceeds 16 bytes (128-bit key limit)", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("strmatch: duplicate pattern %q", p)
		}
		seen[p] = true
		d.patterns = append(d.patterns, []byte(p))
		if len(p) > d.maxLen {
			d.maxLen = len(p)
		}
	}
	d.width = 8 * d.maxLen
	return d, nil
}

// Width returns the LPM key width (8 × longest pattern).
func (d *Dictionary) Width() int { return d.width }

// Rules encodes the dictionary as an LPM rule-set: pattern i becomes the
// rule prefix(pattern bytes, left-aligned)/8·len with action i. Longest
// prefix match over a text window then finds the longest pattern starting
// at the window (App 4's CompactDFA-style reduction [9]).
func (d *Dictionary) Rules() (*lpm.RuleSet, error) {
	rules := make([]lpm.Rule, 0, len(d.patterns))
	for i, p := range d.patterns {
		rules = append(rules, lpm.Rule{
			Prefix: d.windowKey(p),
			Len:    8 * len(p),
			Action: uint64(i),
		})
	}
	return lpm.NewRuleSet(d.width, rules)
}

// windowKey packs up to maxLen bytes left-aligned into a width-bit key.
func (d *Dictionary) windowKey(b []byte) keys.Value {
	v := keys.Value{}
	for i := 0; i < d.maxLen; i++ {
		v = v.Shl(8)
		if i < len(b) {
			v = v.Or(keys.FromUint64(uint64(b[i])))
		}
	}
	return v
}

// ScanLPM slides the window over the text, querying the matcher at every
// offset, and returns the longest pattern starting at each offset (−1 when
// none). The matcher must have been built from d.Rules().
func (d *Dictionary) ScanLPM(m lpm.Matcher, text []byte) []int {
	best := make([]int, len(text))
	for i := range text {
		best[i] = -1
		end := i + d.maxLen
		if end > len(text) {
			end = len(text)
		}
		action, ok := m.Lookup(d.windowKey(text[i:end]))
		if !ok {
			continue
		}
		p := int(action)
		// Reject matches that would extend past the end of the text (the
		// zero-padded window could otherwise fabricate them) and — for
		// truncated windows — verify the bytes (zero padding may alias a
		// pattern whose tail is NUL bytes).
		if i+len(d.patterns[p]) > len(text) {
			p = d.demote(text[i:end], len(text)-i)
		}
		best[i] = p
	}
	return best
}

// demote finds the longest dictionary pattern of length ≤ limit that
// prefixes window (a slow path used only near the text end).
func (d *Dictionary) demote(window []byte, limit int) int {
	best := -1
	for i, p := range d.patterns {
		if len(p) > limit || len(p) > len(window) {
			continue
		}
		if string(window[:len(p)]) == string(p) {
			if best == -1 || len(p) > len(d.patterns[best]) {
				best = i
			}
		}
	}
	return best
}

// PrefixLengthHistogram returns rule counts per prefix length for the
// encoded dictionary — the Fig 2 string-matching curve.
func (d *Dictionary) PrefixLengthHistogram() map[int]int {
	h := map[int]int{}
	for _, p := range d.patterns {
		h[8*len(p)]++
	}
	return h
}

// SortedLengths returns the distinct pattern byte-lengths ascending.
func (d *Dictionary) SortedLengths() []int {
	set := map[int]bool{}
	for _, p := range d.patterns {
		set[len(p)] = true
	}
	out := make([]int, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}
