// Package ranges converts overlapping LPM rules into the sorted array of
// non-overlapping integer ranges that RQRMI can learn (paper §5.1).
//
// The conversion is the stack-based sweep the paper likens to balanced
// bracket checking: rules are sorted by lower bound (covering prefixes
// first), and a stack of currently-open rules determines, for every point of
// the input domain, the deepest (longest-prefix) rule that matches it. The
// output covers the whole domain; gaps between rules are assigned the
// sentinel NoRule. The expansion is at most 2·|rules| ranges.
//
// The array is stored in the key's own width: each range keeps only its
// lower bound (range i ends where range i+1 begins), as ⌈w/32⌉ 32-bit limbs,
// and its owning rule as an int32 — 8 bytes a range at width 32, 20 at 128.
package ranges

import (
	"fmt"
	"sync/atomic"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// NoRule marks a range that no rule covers.
const NoRule int32 = -1

// Array is a sorted range array over a width-bit domain, in two columns of
// exactly its length: the bounds, the paper's lower-bound-only layout (§5.1)
// at 32-bit granularity, and the owners.
type Array struct {
	Width int
	limbs int // ⌈Width/32⌉: the 32-bit words of one bound
	// bounds holds range i's lower bound in limbs words from i·limbs, most
	// significant first. Bounds never change after Convert.
	bounds []uint32
	// owners holds range i's rule index in the source rule-set, or NoRule.
	owners []int32
	rules  []lpm.Rule // the source rule-set's, never written: each action until it changes
	// set is the per-rule action table: nil until a built rule's action first
	// changes, which fills it from rules and publishes it.
	set atomic.Pointer[[]uint64]
	// added holds the actions of the rules AddRule appended, rule index
	// len(rules)+i. It grows by publishing a new slice header, so a reader
	// that met a new rule index in the owner table finds its slot in the
	// table it loads next.
	added atomic.Pointer[[]uint64]
}

// Convert transforms the rule-set into a range array. The result satisfies:
// for every key k, the range found by Find(k) names the longest-prefix rule
// of s matching k (or NoRule). The sweep runs twice: once to count the
// ranges, once to write them into columns of exactly that size, so each
// column is allocated once and no larger buffer is ever held beside it.
func Convert(s *lpm.RuleSet) (*Array, error) {
	var count sweep
	if err := count.run(s); err != nil {
		return nil, err
	}
	a := &Array{Width: s.Width, limbs: (s.Width + 31) / 32, rules: s.Rules}
	a.bounds, a.owners = make([]uint32, count.n*a.limbs), make([]int32, count.n)
	fill := sweep{out: a}
	if err := fill.run(s); err != nil {
		return nil, err
	}
	return a, nil
}

// sweep is one pass of the conversion: it counts the ranges the rule-set
// converts to, and writes them into out's columns when out is non-nil.
type sweep struct {
	out  *Array
	n    int   // ranges emitted
	last int32 // the rule of the last one
}

// emit adds the range starting at low, owned by rule idx. It merges with the
// previous range when the owner is unchanged, so adjacent ranges of the same
// rule never split the array.
func (w *sweep) emit(low keys.Value, idx int32) {
	if w.n > 0 && w.last == idx {
		return
	}
	if a := w.out; a != nil {
		b := a.bounds[w.n*a.limbs : (w.n+1)*a.limbs]
		for j := len(b) - 1; j >= 0; j-- {
			b[j] = uint32(low.Lo)
			low.Lo = low.Lo>>32 | low.Hi<<32
			low.Hi >>= 32
		}
		a.owners[w.n] = idx
	}
	w.n++
	w.last = idx
}

func (w *sweep) run(s *lpm.RuleSet) error {
	type openRule struct {
		high keys.Value
		idx  int32
	}
	// wild[l] is the wildcard mask of a rule of length l: its High is its
	// Prefix with wild[l] set; wild[Width] is zero.
	var wild [129]keys.Value
	for l := range s.Width {
		wild[l] = keys.MaxValue(s.Width - l)
	}
	// Rules arrive sorted by (low asc, len asc): covering prefixes first.
	// Prefix ranges form a laminar family, so a stack sweep suffices.
	var buf [64]openRule
	stack := append(buf[:0], openRule{high: keys.MaxValue(s.Width), idx: NoRule}) // null rule (step 1)
	cursor := keys.Value{}                                                        // next uncovered key
	for i, r := range s.Rules {
		low, high := r.Prefix, r.Prefix.Or(wild[r.Len])
		// Close every open rule that ends before this one starts (step 4).
		for len(stack) > 1 && stack[len(stack)-1].high.Less(low) {
			t := stack[len(stack)-1]
			if cursor.Cmp(t.high) <= 0 {
				w.emit(cursor, t.idx)
				cursor = t.high.Inc()
			}
			stack = stack[:len(stack)-1]
		}
		t := stack[len(stack)-1]
		// Laminar check: the new rule must nest inside the current top.
		if high.Cmp(t.high) > 0 {
			return fmt.Errorf("ranges: rule %v is not nested (corrupt rule-set)", s.Rules[i])
		}
		// The gap between cursor and this rule's start belongs to the
		// currently open rule (step 3).
		if cursor.Less(low) {
			w.emit(cursor, t.idx)
			cursor = low
		}
		stack = append(stack, openRule{high: high, idx: int32(i)})
	}
	// Close the remaining open rules, deepest first.
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		if cursor.Cmp(t.high) <= 0 {
			w.emit(cursor, t.idx)
			if t.high == keys.MaxValue(s.Width) {
				break
			}
			cursor = t.high.Inc()
		}
		stack = stack[:len(stack)-1]
	}
	return nil
}

// Len returns the number of ranges.
func (a *Array) Len() int { return len(a.owners) }

// Low returns the lower bound of range i, assembled from its limbs. Together
// with Len it lets the array serve directly as the RQ Array an RQRMI model
// learns.
func (a *Array) Low(i int) (low keys.Value) {
	for _, w := range a.bounds[i*a.limbs : (i+1)*a.limbs] {
		low.Hi = low.Hi<<32 | low.Lo>>32
		low.Lo = low.Lo<<32 | uint64(w)
	}
	return low
}

// Rule ownership (the owners column) and the action tables are the only
// words a published array mutates — the no-retrain update paths rewrite them
// while Engine.Verify may read them; no lookup does (core answers from its
// records). Both are accessed with atomic word operations so a reader sees
// either the old or the new value, never a torn one. Bounds never change
// after Convert: a boundary an absorbed insert adds lives in its bucket's
// spill record (internal/core), not here.

// RuleOf returns the rule index owning range i, or NoRule.
func (a *Array) RuleOf(i int) int32 { return atomic.LoadInt32(&a.owners[i]) }

// SetRule re-owns range i (the tombstone-aware delete path).
func (a *Array) SetRule(i int, r int32) { atomic.StoreInt32(&a.owners[i], r) }

// Action resolves the action of range i; ok is false for NoRule ranges.
func (a *Array) Action(i int) (uint64, bool) {
	r := a.RuleOf(i)
	if r == NoRule {
		return 0, false
	}
	return a.RuleAction(r), true
}

// RuleAction returns rule r's action: its added slot, its word in the
// per-rule table once one exists, else the source rule's own.
func (a *Array) RuleAction(r int32) uint64 {
	if n := int32(len(a.rules)); r >= n {
		return atomic.LoadUint64(&(*a.added.Load())[r-n])
	}
	if t := a.set.Load(); t != nil {
		return atomic.LoadUint64(&(*t)[r])
	}
	return a.rules[r].Action
}

// SetAction updates the stored action of rule idx (used by the no-retrain
// action-modification update path). Writers are serialized. A built rule set
// to the action it has already needs no table.
func (a *Array) SetAction(idx int32, action uint64) {
	n := int32(len(a.rules))
	switch t := a.set.Load(); {
	case idx >= n:
		atomic.StoreUint64(&(*a.added.Load())[idx-n], action)
	case t != nil:
		atomic.StoreUint64(&(*t)[idx], action)
	case a.rules[idx].Action != action:
		tbl := make([]uint64, n)
		for i, r := range a.rules {
			tbl[i] = r.Action
		}
		tbl[idx] = action
		a.set.Store(&tbl)
	}
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
	return int32(len(a.rules) + len(old))
}

// High returns the inclusive upper bound of range i.
func (a *Array) High(i int) keys.Value {
	if i == a.Len()-1 {
		return keys.MaxValue(a.Width)
	}
	return a.Low(i + 1).Dec()
}

// BytesPerEntry is the on-chip cost of one range: its lower bound in ⌈w/8⌉
// bytes (§5.1 stores only lower bounds). It is the paper's SRAM accounting,
// not the bytes the bounds column holds, which rounds up to 32-bit limbs.
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
