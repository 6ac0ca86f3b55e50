// Package ranges converts overlapping LPM rules into the sorted array of
// non-overlapping integer ranges that RQRMI can learn (paper §5.1).
//
// The conversion is the stack-based sweep the paper likens to balanced
// bracket checking: rules are sorted by lower bound (covering prefixes
// first), and a stack of currently-open rules determines, for every point of
// the input domain, the deepest (longest-prefix) rule that matches it. The
// output covers the whole domain; gaps between rules are assigned the
// sentinel NoRule. The expansion is at most 2·|rules| ranges.
package ranges

import (
	"fmt"
	"sort"
	"sync/atomic"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// NoRule marks a range that no rule covers.
const NoRule int32 = -1

// Entry is one non-overlapping range. Only the lower bound is stored (the
// array covers the whole domain, so entry i ends where entry i+1 begins —
// exactly the paper's 4-bytes-per-range layout for 32-bit rules). Rule is
// the index of the matching rule in the source rule-set, or NoRule.
type Entry struct {
	Low  keys.Value
	Rule int32
}

// Array is a sorted range array over a width-bit domain.
type Array struct {
	Width   int
	Entries []Entry
	actions []uint64 // actions[i] = action of source rule i
	// added holds the actions of the rules AddRule appended, rule index
	// len(actions)+i. It grows by publishing a new slice header, so a reader
	// that met a new rule index in the owner table finds its slot in the
	// table it loads next; the built table is never copied.
	added atomic.Pointer[[]uint64]
}

// Convert transforms the rule-set into a range array. The result satisfies:
// for every key k, the entry found by Find(k) names the longest-prefix rule
// of s matching k (or NoRule).
func Convert(s *lpm.RuleSet) (*Array, error) {
	type openRule struct {
		high keys.Value
		idx  int32
	}
	a := &Array{Width: s.Width, actions: make([]uint64, len(s.Rules))}
	for i, r := range s.Rules {
		a.actions[i] = r.Action
	}
	// Rules arrive sorted by (low asc, len asc): covering prefixes first.
	// Prefix ranges form a laminar family, so a stack sweep suffices.
	stack := make([]openRule, 0, 64)
	stack = append(stack, openRule{high: keys.MaxValue(s.Width), idx: NoRule}) // null rule (step 1)
	cursor := keys.Value{}                                                     // next uncovered key
	emit := func(low keys.Value, idx int32) {
		// Merge with the previous entry when the owner is unchanged, so
		// adjacent ranges of the same rule never split the array.
		if n := len(a.Entries); n > 0 && a.Entries[n-1].Rule == idx {
			return
		}
		a.Entries = append(a.Entries, Entry{Low: low, Rule: idx})
	}
	top := func() openRule { return stack[len(stack)-1] }

	for i, r := range s.Rules {
		low, high := r.Low(s.Width), r.High(s.Width)
		// Close every open rule that ends before this one starts (step 4).
		for len(stack) > 1 && top().high.Less(low) {
			t := top()
			if cursor.Cmp(t.high) <= 0 {
				emit(cursor, t.idx)
				cursor = t.high.Inc()
			}
			stack = stack[:len(stack)-1]
		}
		// Laminar check: the new rule must nest inside the current top.
		if t := top(); high.Cmp(t.high) > 0 {
			return nil, fmt.Errorf("ranges: rule %v is not nested (corrupt rule-set)", s.Rules[i])
		}
		// The gap between cursor and this rule's start belongs to the
		// currently open rule (step 3).
		if cursor.Less(low) {
			emit(cursor, top().idx)
			cursor = low
		}
		stack = append(stack, openRule{high: high, idx: int32(i)})
	}
	// Close the remaining open rules, deepest first.
	for len(stack) > 0 {
		t := top()
		if cursor.Cmp(t.high) <= 0 {
			emit(cursor, t.idx)
			if t.high == keys.MaxValue(s.Width) {
				stack = stack[:1]
				break
			}
			cursor = t.high.Inc()
		}
		stack = stack[:len(stack)-1]
	}
	if len(a.Entries) == 0 { // empty rule-set: whole domain unmatched
		a.Entries = append(a.Entries, Entry{Rule: NoRule})
	}
	return a, nil
}

// Len returns the number of ranges.
func (a *Array) Len() int { return len(a.Entries) }

// Low returns the lower bound of range i. Together with Len it lets the
// array serve directly as the RQ Array an RQRMI model learns.
func (a *Array) Low(i int) keys.Value { return a.Entries[i].Low }

// Find returns the index of the range containing k: the greatest i with
// Entries[i].Low ≤ k. This is the reference secondary search over the whole
// array.
func (a *Array) Find(k keys.Value) int {
	// sort.Search for first entry with Low > k, then step back.
	i := sort.Search(len(a.Entries), func(i int) bool {
		return k.Less(a.Entries[i].Low)
	})
	return i - 1
}

// FindWithin performs the bounded secondary search of the hardware engine:
// it searches only [lo, hi] (clamped), assuming the true answer lies there.
// It returns the index and the number of array probes the binary search
// performed (the quantity the paper's FSM/bank analysis is built on).
func (a *Array) FindWithin(k keys.Value, lo, hi int) (idx, probes int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(a.Entries)-1 {
		hi = len(a.Entries) - 1
	}
	return keys.BoundedSearch(k, lo, hi, a.Low)
}

// Rule ownership (Entry.Rule) and the actions table are the only words a
// published array mutates — the no-retrain insert, delete and
// action-modification paths rewrite them while lock-free readers resolve
// lookups. Both are accessed with atomic word operations so a reader sees
// either the old or the new value, never a torn one. Low values never change
// after Convert: a boundary an absorbed insert adds lives in its bucket's
// spill record (internal/core), not here.

// Rule returns the rule index owning range i, or NoRule.
func (a *Array) RuleOf(i int) int32 { return atomic.LoadInt32(&a.Entries[i].Rule) }

// SetRule re-owns range i (the tombstone-aware delete path).
func (a *Array) SetRule(i int, r int32) { atomic.StoreInt32(&a.Entries[i].Rule, r) }

// Action resolves the action of range i; ok is false for NoRule ranges.
func (a *Array) Action(i int) (uint64, bool) {
	r := atomic.LoadInt32(&a.Entries[i].Rule)
	if r == NoRule {
		return 0, false
	}
	return atomic.LoadUint64(a.action(r)), true
}

// action returns rule r's slot in the actions tables.
func (a *Array) action(r int32) *uint64 {
	if n := int32(len(a.actions)); r >= n {
		return &(*a.added.Load())[r-n]
	}
	return &a.actions[r]
}

// SetAction updates the stored action of source rule idx (used by the
// no-retrain action-modification update path).
func (a *Array) SetAction(idx int32, action uint64) {
	atomic.StoreUint64(a.action(idx), action)
}

// AddRule appends a rule's action and returns its index — the rule an
// absorbed insert adds to a published array. Writers are serialized; the
// index must not reach the owner table before AddRule returns.
func (a *Array) AddRule(action uint64) int32 {
	var old []uint64
	if p := a.added.Load(); p != nil {
		old = *p
	}
	grown := append(old, action) // shares old's words while capacity lasts
	a.added.Store(&grown)
	return int32(len(a.actions) + len(old))
}

// High returns the inclusive upper bound of range i.
func (a *Array) High(i int) keys.Value {
	if i == len(a.Entries)-1 {
		return keys.MaxValue(a.Width)
	}
	return a.Entries[i+1].Low.Dec()
}

// BytesPerEntry is the on-chip cost of one range: the 32-/64-/128-bit lower
// bound (§5.1 stores only lower bounds).
func (a *Array) BytesPerEntry() int {
	return (a.Width + 7) / 8
}

// SizeBytes returns the SRAM footprint of the range array's bounds.
func (a *Array) SizeBytes() int { return a.Len() * a.BytesPerEntry() }

// ExpansionStats describes the LPM→range conversion overhead (§10.5).
type ExpansionStats struct {
	Rules     int
	Ranges    int
	Expansion float64 // Ranges/Rules − 1
}

// Expansion computes the conversion overhead relative to the source rules.
func (a *Array) Expansion(ruleCount int) ExpansionStats {
	st := ExpansionStats{Rules: ruleCount, Ranges: a.Len()}
	if ruleCount > 0 {
		st.Expansion = float64(a.Len())/float64(ruleCount) - 1
	}
	return st
}
