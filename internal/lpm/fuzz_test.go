package lpm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"neurolpm/internal/keys"
)

// referenceParse is ParseRuleSet as written before it walked the text in
// place: strings.Split into lines, TrimSpace, strings.Fields, strconv, a
// validity check written without keys.MaxValue, then a sort and a duplicate
// scan over the whole set. It returns the rules in rule-set order, or the
// 1-based line of the first bad line (0 for a duplicate) and an error.
func referenceParse(width int, text string) ([]Rule, int, error) {
	var rules []Rule
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := referenceRule(width, line)
		if err != nil {
			return nil, i + 1, err
		}
		rules = append(rules, r)
	}
	slices.SortFunc(rules, func(a, b Rule) int {
		if c := a.Prefix.Cmp(b.Prefix); c != 0 {
			return c
		}
		return a.Len - b.Len
	})
	for i := 1; i < len(rules); i++ {
		if rules[i-1].Prefix == rules[i].Prefix && rules[i-1].Len == rules[i].Len {
			return nil, 0, fmt.Errorf("duplicate %v", rules[i])
		}
	}
	return rules, 0, nil
}

func referenceRule(width int, line string) (Rule, error) {
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return Rule{}, fmt.Errorf("malformed")
	}
	slash := strings.IndexByte(fields[0], '/')
	if slash < 0 {
		return Rule{}, fmt.Errorf("no slash")
	}
	var prefix keys.Value
	if s := fields[0][:slash]; strings.HasPrefix(s, "0x") && len(s) > 18 {
		digits := s[2:]
		if len(digits) > 32 {
			return Rule{}, fmt.Errorf("over 128 bits")
		}
		hi, err := strconv.ParseUint(digits[:len(digits)-16], 16, 64)
		if err != nil {
			return Rule{}, err
		}
		lo, err := strconv.ParseUint(digits[len(digits)-16:], 16, 64)
		if err != nil {
			return Rule{}, err
		}
		prefix = keys.FromParts(hi, lo)
	} else {
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return Rule{}, err
		}
		prefix = keys.FromUint64(v)
	}
	length, err := strconv.Atoi(fields[0][slash+1:])
	if err != nil {
		return Rule{}, err
	}
	action, err := strconv.ParseUint(fields[1], 0, 64)
	if err != nil {
		return Rule{}, err
	}
	if length < 0 || length > width || !prefix.Shr(uint(width)).IsZero() {
		return Rule{}, fmt.Errorf("out of range")
	}
	// The low width−length bits, shifted to the top, must be zero.
	if wild := uint(width - length); wild > 0 && !prefix.Shl(128-wild).IsZero() {
		return Rule{}, fmt.Errorf("wildcard bits set")
	}
	return Rule{Prefix: prefix, Len: length, Action: action}, nil
}

// parseSeeds is FuzzParseRule's seed corpus, which TestReadRuleFileMatchesParse
// also writes to files. The seeds cover what the in-place field cut must get
// right: CRLF, tabs, \v and \f, indented comments, no final newline, empty
// text, 128-bit hex, and U+00A0 and U+0085, which strings.Fields and
// strings.TrimSpace treat as spaces.
var parseSeeds = []struct {
	text  string
	width uint8 // the width is 1 + width%128
}{
	{"0xc0a80000/16 7", 31},
	{"128/1 3", 7},
	{"0x20010db8000000000000000000000000/32 9", 127},
	{"0x20010db8000000000000000000000000/32 9", 31},
	{"garbage", 31},
	{"0x10/4 5 6", 7},
	{"", 31},
	{"0x80000000/1 1\r\n0x40000000/2 2\r\n", 31},
	{"0x80000000/1\t1\n\t0x40000000/2 \t2", 31},
	{"0x80000000/1\v1\f\n\f0x40000000/2\v2", 31},
	{"  # comment\n\t# another\n0x80000000/1 1\n", 31},
	{"0x80000000/1 1\n0x40000000/2 2", 31},
	{"0x80000000/1 1\n", 31},
	{"0x80000000/1\u00851\n", 31},
	{" 0x80000000/1 1\u0085\n0x40000000/2\u0085 2", 31},
	{"0x80000000/1 1\n0x80000000/1 2\n", 31},
	{"0x40000000/2 2\n0x80000000/1 1\n", 31},
	{"0x80000000/1 1\n\nbogus\n", 31},
	{"0x_80/1 1\n0X40/2 2\n0x/1 1", 7},
	{"0x80000000000000000000000000000000/1 7\n0x8000000000000000/65 0x7\n0x1ffffffffffffffff/128 1", 127},
	{"0x80/+1 1\n0x40/2 0b10\n0x20/3 0o7", 7},
}

// FuzzParseRule holds ParseRuleSet to referenceParse on arbitrary text at
// every width: both accept or both reject, an accepted text gives the same
// rules, and a rejected one names the same line. It starts from parseSeeds.
func FuzzParseRule(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s.text, s.width)
	}
	f.Fuzz(func(t *testing.T, text string, w uint8) {
		width := 1 + int(w)%128
		want, wantLine, wantErr := referenceParse(width, text)
		got, err := ParseRuleSet(width, text)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("width %d %q: ParseRuleSet err %v, reference err %v", width, text, err, wantErr)
		}
		if err != nil {
			var line int
			fmt.Sscanf(err.Error(), "line %d:", &line)
			if line != wantLine {
				t.Fatalf("width %d %q: error on line %d (%v), reference on line %d (%v)", width, text, line, err, wantLine, wantErr)
			}
			return
		}
		if !slices.Equal(got.Rules, want) {
			t.Fatalf("width %d %q: rules %v, reference %v", width, text, got.Rules, want)
		}
		for _, r := range got.Rules {
			if err := r.Validate(width); err != nil {
				t.Fatalf("accepted rule fails validation: %v", err)
			}
		}
	})
}

// FuzzPrefixCoverBounds checks PrefixCover on arbitrary intervals: covers
// are valid rule-sets and every rule stays inside the interval.
func FuzzPrefixCoverBounds(f *testing.F) {
	f.Add(uint64(0), uint64(100))
	f.Add(uint64(5), uint64(5))
	f.Add(uint64(1<<31), uint64(1<<32-1))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		a &= 1<<32 - 1
		b &= 1<<32 - 1
		if a > b {
			a, b = b, a
		}
		lo := keys.FromUint64(a)
		hi := keys.FromUint64(b)
		rules, err := PrefixCover(32, lo, hi, 1)
		if err != nil {
			t.Fatalf("valid interval rejected: %v", err)
		}
		if _, err := NewRuleSet(32, rules); err != nil {
			t.Fatalf("cover is not a valid rule-set: %v", err)
		}
		for _, r := range rules {
			if r.Low(32).Less(lo) || hi.Less(r.High(32)) {
				t.Fatalf("rule %v escapes [%v,%v]", r, lo, hi)
			}
		}
	})
}
