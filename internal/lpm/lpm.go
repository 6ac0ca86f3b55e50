// Package lpm defines the Longest Prefix Match rule model used by NeuroLPM
// and its baselines: width-bit rules of the form prefix:wildcard with an
// associated action, plus reference matchers that serve as correctness
// oracles for the learned engine.
package lpm

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"neurolpm/internal/keys"
)

// NoMatch is returned by matchers when no rule covers the query.
const NoMatch = -1

// Rule is an LPM rule: the Len most-significant bits of Prefix are fixed,
// the remaining Width−Len bits are wildcards. Action is the value associated
// with the rule; per the paper's clustering application (App 3) it may be
// any 64-bit integer, not just an 8-bit next-hop index.
type Rule struct {
	Prefix keys.Value // wildcard bits must be zero
	Len    int        // number of fixed (most significant) bits, 0..Width
	Action uint64
}

// Low returns the smallest key matched by r in a width-bit domain.
func (r Rule) Low(width int) keys.Value { return r.Prefix }

// High returns the largest key matched by r in a width-bit domain.
func (r Rule) High(width int) keys.Value {
	if r.Len >= width {
		return r.Prefix
	}
	return r.Prefix.Or(keys.MaxValue(width - r.Len))
}

// String renders r as "<hex-prefix>/<len> -> <action>".
func (r Rule) String() string {
	return fmt.Sprintf("%s/%d -> %d", r.Prefix, r.Len, r.Action)
}

// Validate checks that r is well-formed for a width-bit rule-set.
func (r Rule) Validate(width int) error {
	if r.Len < 0 || r.Len > width {
		return fmt.Errorf("lpm: rule %v: length %d outside [0,%d]", r, r.Len, width)
	}
	if keys.MaxValue(width).Less(r.Prefix) {
		return fmt.Errorf("lpm: rule %v: prefix exceeds %d bits", r, width)
	}
	if r.Len < width {
		wild := keys.MaxValue(width - r.Len)
		if !r.Prefix.And(wild).IsZero() {
			return fmt.Errorf("lpm: rule %v: wildcard bits not zero", r)
		}
	}
	return nil
}

// RuleSet is a collection of LPM rules over a common bit width.
type RuleSet struct {
	Width int
	Rules []Rule
}

// NewRuleSet validates the rules and returns a rule-set over a copy of them.
// Duplicate (prefix,len) pairs are rejected: a rule-set maps each prefix to
// exactly one action.
func NewRuleSet(width int, rules []Rule) (*RuleSet, error) {
	return OwnRuleSet(width, slices.Clone(rules))
}

// OwnRuleSet is NewRuleSet without the copy: the rule-set keeps rules as its
// storage and may reorder it, so the caller hands the slice over. It is for
// a slice the caller has just built, such as a rebuild's live rules.
func OwnRuleSet(width int, rules []Rule) (*RuleSet, error) {
	if err := checkWidth(width); err != nil {
		return nil, err
	}
	for _, r := range rules {
		if err := r.Validate(width); err != nil {
			return nil, err
		}
	}
	return own(width, rules)
}

func checkWidth(width int) error {
	if width < 1 || width > 128 {
		return fmt.Errorf("lpm: invalid width %d", width)
	}
	return nil
}

// own wraps validated rules in a rule-set, sorting them unless they already
// are, and rejects duplicates. Duplicates are detected on the sorted rules
// (equal pairs land adjacent), not with a hash set — at the 10M-rule canary
// scale the struct-keyed map dominated construction (≈5s of hashing at 6M
// rules) while the sort is needed anyway.
func own(width int, rules []Rule) (*RuleSet, error) {
	if !slices.IsSortedFunc(rules, compareRules) {
		slices.SortFunc(rules, compareRules)
	}
	for i := 1; i < len(rules); i++ {
		a, b := rules[i-1], rules[i]
		if a.Prefix == b.Prefix && a.Len == b.Len {
			return nil, fmt.Errorf("lpm: duplicate rule %s/%d", b.Prefix, b.Len)
		}
	}
	return &RuleSet{Width: width, Rules: rules}, nil
}

// compareRules orders rules by (Low asc, Len asc) so that a covering
// (shorter) prefix always precedes the prefixes nested inside it — the order
// required by the range-conversion sweep. slices.SortFunc, not the
// reflect-based sort.Slice: at 10M rules the latter costs whole seconds.
func compareRules(a, b Rule) int {
	if c := a.Prefix.Cmp(b.Prefix); c != 0 {
		return c
	}
	return a.Len - b.Len
}

// Len returns the number of rules.
func (s *RuleSet) Len() int { return len(s.Rules) }

// Find returns the index of the rule with the given prefix and length, or
// NoMatch if absent.
func (s *RuleSet) Find(prefix keys.Value, length int) int {
	i := sort.Search(len(s.Rules), func(i int) bool {
		r := s.Rules[i]
		if c := r.Prefix.Cmp(prefix); c != 0 {
			return c >= 0
		}
		return r.Len >= length
	})
	if i < len(s.Rules) && s.Rules[i].Prefix == prefix && s.Rules[i].Len == length {
		return i
	}
	return NoMatch
}

// parseRule parses "prefix/len action" where prefix is a hexadecimal or
// decimal integer of the domain width, e.g. "0xc0a80000/16 7".
func parseRule(width int, line string) (Rule, error) {
	// The form Format writes, one space between the fields, is cut in place.
	// A field that parses holds no space and no non-ASCII byte, so success
	// here is the split strings.Fields makes; on any failure the line is
	// parsed again that way, which also reports the error.
	if pfx, act, ok := strings.Cut(line, " "); ok {
		if r, err := parseFields(width, line, pfx, act); err == nil {
			return r, nil
		}
	}
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return Rule{}, fmt.Errorf("lpm: malformed rule %q (want \"prefix/len action\")", line)
	}
	return parseFields(width, line, fields[0], fields[1])
}

// parseFields parses and validates line's two fields, pfx and act.
func parseFields(width int, line, pfx, act string) (Rule, error) {
	slash := strings.IndexByte(pfx, '/')
	if slash < 0 {
		return Rule{}, fmt.Errorf("lpm: malformed prefix %q (missing /len)", pfx)
	}
	prefix, err := parseValue(pfx[:slash])
	if err != nil {
		return Rule{}, fmt.Errorf("lpm: bad prefix in %q: %w", line, err)
	}
	length, err := strconv.Atoi(pfx[slash+1:])
	if err != nil {
		return Rule{}, fmt.Errorf("lpm: bad length in %q: %w", line, err)
	}
	action, err := strconv.ParseUint(act, 0, 64)
	if err != nil {
		return Rule{}, fmt.Errorf("lpm: bad action in %q: %w", line, err)
	}
	r := Rule{Prefix: prefix, Len: length, Action: action}
	if err := r.Validate(width); err != nil {
		return Rule{}, err
	}
	return r, nil
}

func parseValue(s string) (keys.Value, error) {
	if v, ok := hex64(s); ok {
		return keys.FromUint64(v), nil
	}
	// Values up to 64 bits parse directly; longer hex strings split limbs.
	if strings.HasPrefix(s, "0x") && len(s) > 18 {
		hexDigits := s[2:]
		if len(hexDigits) > 32 {
			return keys.Value{}, errors.New("value exceeds 128 bits")
		}
		split := len(hexDigits) - 16
		hi, err := strconv.ParseUint(hexDigits[:split], 16, 64)
		if err != nil {
			return keys.Value{}, err
		}
		lo, err := strconv.ParseUint(hexDigits[split:], 16, 64)
		if err != nil {
			return keys.Value{}, err
		}
		return keys.FromParts(hi, lo), nil
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return keys.Value{}, err
	}
	return keys.FromUint64(v), nil
}

// hex64 parses "0x" and one to 16 hex digits, the form Format writes for a
// value of at most 64 bits, as strconv.ParseUint(s, 0, 64) would. ok is false
// for any other form, which strconv then parses.
func hex64(s string) (v uint64, ok bool) {
	if len(s) < 3 || len(s) > 18 || s[:2] != "0x" {
		return 0, false
	}
	for _, c := range []byte(s[2:]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint64(c)
	}
	return v, true
}

// ParseRuleSet parses one rule per line; blank lines and lines starting with
// '#' are skipped. It walks the text in place: the rules are its only copy,
// sized from the newline count, and each is validated once, by parseRule.
func ParseRuleSet(width int, text string) (*RuleSet, error) {
	if err := checkWidth(width); err != nil {
		return nil, err
	}
	rules, _, err := parseLines(width, text, 1, make([]Rule, 0, strings.Count(text, "\n")+1))
	if err != nil {
		return nil, err
	}
	return own(width, rules)
}

// parseLines appends the rules of text, whose first line is number lineNo,
// to rules, and returns the number of the line after text's last. A line
// error names its line.
func parseLines(width int, text string, lineNo int, rules []Rule) ([]Rule, int, error) {
	for ; text != ""; lineNo++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := parseRule(width, line)
		if err != nil {
			return nil, lineNo, fmt.Errorf("line %d: %w", lineNo, err)
		}
		rules = append(rules, r)
	}
	return rules, lineNo, nil
}

// readChunk is the size of the buffer ReadRuleFile reads a file through.
const readChunk = 64 << 10

// ReadRuleFile reads the rule file at path: ParseRuleSet of its contents,
// with the same rules or the same error, without holding the text. One pass
// over fixed-size chunks counts the newlines, which size the rule slice; a
// second parses each chunk's whole lines in place, with ParseRuleSet's
// per-line routine, and carries a line the chunk cuts into the next read. The
// rules are the only whole-file allocation; a line longer than the buffer
// grows it.
func ReadRuleFile(width int, path string) (*RuleSet, error) {
	if err := checkWidth(width); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, readChunk)
	newlines := 0
	for {
		n, err := f.Read(buf)
		newlines += bytes.Count(buf[:n], []byte{'\n'})
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	rules := make([]Rule, 0, newlines+1)
	lineNo, held := 1, 0 // held: the bytes of a cut line at buf's start
	for eof := false; !eof; {
		n, err := f.Read(buf[held:])
		if err == io.EOF {
			eof = true
		} else if err != nil {
			return nil, err
		}
		data := buf[:held+n]
		end := len(data) // at the end of the file the last line needs no newline
		if !eof {
			end = bytes.LastIndexByte(data, '\n') + 1
			if end == 0 && len(data) == len(buf) {
				buf = append(buf, make([]byte, len(buf))...)
				held = len(data)
				continue
			}
		}
		// The string views buf without a copy; nothing keeps it past this
		// call, since a rule holds no text and an error quotes a copy.
		text := unsafe.String(unsafe.SliceData(data), end)
		if rules, lineNo, err = parseLines(width, text, lineNo, rules); err != nil {
			return nil, err
		}
		held = copy(buf, data[end:])
	}
	return own(width, rules)
}

// Format renders the rule-set in the textual form accepted by ParseRuleSet.
func (s *RuleSet) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# width=%d rules=%d\n", s.Width, len(s.Rules))
	for _, r := range s.Rules {
		fmt.Fprintf(&b, "%s/%d %d\n", r.Prefix, r.Len, r.Action)
	}
	return b.String()
}

// PrefixHistogram returns the count of rules per prefix length (index 0..Width).
func (s *RuleSet) PrefixHistogram() []int {
	h := make([]int, s.Width+1)
	for _, r := range s.Rules {
		h[r.Len]++
	}
	return h
}
