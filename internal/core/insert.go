package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
)

// This file is the writer's side of a published engine: the rule table as it
// grows past what Build sorted, the writer's handle on a bucket's current
// ranges, and Insert — the insertion that costs what it changes (DESIGN.md
// §10, §11). Every function here runs under the caller's writer lock.

// ruleID names a rule by what makes it unique in a rule-set.
type ruleID struct {
	prefix keys.Value
	len    int
}

// absorbedRule is a rule Insert added after Build, its action in the range
// array's added slot. Rule indices are one space: rules.Rules first, then
// Engine.absorbed in arrival order.
type absorbedRule struct {
	ruleID
	dead atomic.Bool
}

// findRule is rules.Find over built and absorbed rules, dead ones included.
func (e *Engine) findRule(prefix keys.Value, length int) int {
	if i := e.rules.Find(prefix, length); i != lpm.NoMatch {
		return i
	}
	if i, ok := e.absorbedAt[ruleID{prefix, length}]; ok {
		return i
	}
	return lpm.NoMatch
}

// rule returns rule i as it stands, its action read from the one action
// store (ranges.Array.RuleAction).
func (e *Engine) rule(i int) lpm.Rule {
	var r lpm.Rule
	if n := e.rules.Len(); i >= n {
		a := e.absorbed[i-n]
		r = lpm.Rule{Prefix: a.prefix, Len: a.len}
	} else {
		r = e.rules.Rules[i]
	}
	r.Action = e.ra.RuleAction(int32(i))
	return r
}

// isLive reports whether rule i is installed.
func (e *Engine) isLive(i int) bool {
	if n := e.rules.Len(); i >= n {
		return !e.absorbed[i-n].dead.Load()
	}
	return e.dead[i>>6].Load()>>(uint(i)&63)&1 == 0
}

func (e *Engine) setLive(i int, live bool) {
	bit := uint64(1) << (uint(i) & 63)
	switch n := e.rules.Len(); {
	case i >= n:
		e.absorbed[i-n].dead.Store(!live)
	case live:
		e.dead[i>>6].And(^bit)
	default:
		e.dead[i>>6].Or(bit)
	}
}

// liveRules returns the installed rules, built and absorbed, with room for
// extra more.
func (e *Engine) liveRules(extra int) []lpm.Rule {
	out := make([]lpm.Rule, 0, e.rules.Len()+len(e.absorbed)+extra)
	for i, n := 0, e.rules.Len()+len(e.absorbed); i < n; i++ {
		if e.isLive(i) {
			out = append(out, e.rule(i))
		}
	}
	return out
}

// coverOf returns the longest live rule that is a proper prefix of
// prefix/length, or ranges.NoRule: what every range of that rule falls to
// without it.
func (e *Engine) coverOf(prefix keys.Value, length int) int32 {
	for l := length - 1; l >= 0; l-- {
		if e.lens[l] == 0 {
			continue
		}
		shift := uint(e.width - l)
		if i := e.findRule(prefix.Shr(shift).Shl(shift), l); i != lpm.NoMatch && e.isLive(i) {
			return int32(i)
		}
	}
	return ranges.NoRule
}

// wbucket is the writer's handle on one bucket's current ranges: the dense
// record Build laid out and the range array's owner column, or — once the
// bucket has spilled — the spill record and the owner table behind it.
// SRAM-only engines are the K = 1 case, every range its own bucket.
type wbucket struct {
	view
	e    *Engine
	b    int // the bucket
	base int // its first range in the range array
}

func (e *Engine) bucketW(b int) wbucket {
	return wbucket{view: e.rec.open(b), e: e, b: b, base: b * e.rec.k}
}

// bucketOf returns the bucket whose span holds k, found the way a lookup
// finds it: over the compiled plane's bounds of the learned index — the
// directory, or the range array of an SRAM-only engine. Spilling never moves
// a bucket's span, so those bounds still know.
func (e *Engine) bucketOf(k keys.Value) int { return e.comp.Find(k) }

// low returns range j's lower bound from the bucket's current record, and
// range 0's — which no record holds — from the compiled plane's copy of the
// bucket's directory bound.
func (w wbucket) low(j int) keys.Value {
	if j > 0 {
		return w.l.bound(w.rec, j)
	}
	return w.e.comp.Low(w.b)
}

func (w wbucket) owner(j int) int32 {
	if w.spilled {
		return int32(atomic.LoadUint32(&w.rec[w.l.stride+j]))
	}
	return w.e.ra.RuleOf(w.base + j)
}

// reown hands range j to rule r (or to nobody): owner table first, then the
// record's id, as Delete has always published.
func (w wbucket) reown(j int, r int32) {
	if w.spilled {
		atomic.StoreUint32(&w.rec[w.l.stride+j], uint32(r))
	} else {
		w.e.ra.SetRule(w.base+j, r)
	}
	var id uint32
	if r != ranges.NoRule {
		id = w.e.rec.intern(w.e.ra.RuleAction(r))
	}
	w.setOwner(j, id)
}

// owned calls fn for every range rule idx owns. All rule bounds are range
// boundaries, so those ranges lie in the buckets of the rule's covered span.
func (e *Engine) owned(idx int, fn func(w wbucket, j int)) {
	r := e.rule(idx)
	last := e.bucketOf(r.High(e.width))
	for b := e.bucketOf(r.Low(e.width)); b <= last; b++ {
		w := e.bucketW(b)
		for j := 0; j < w.n; j++ {
			if w.owner(j) == int32(idx) {
				fn(w, j)
			}
		}
	}
}

// SpilledBuckets returns how many buckets answer from a spill record: 0 on a
// freshly built engine, and again after the commit that folds them back.
func (e *Engine) SpilledBuckets() int { return int(e.rec.spilled.Load()) }

// Insert installs r in the published engine without retraining: the rule
// adds at most two range boundaries — its low, and its high + 1 — and re-owns
// the ranges of its span whose owner is shorter. The directory, the model and
// every error bound are untouched: the RQRMI indexes buckets, and no bucket's
// span moves (§7).
//
// Re-owning is what Delete does, in place. A bucket that gains a boundary is
// rebuilt — old ranges, the split ones inheriting their parent's owner and
// answer, then the re-own — as a fresh spill record and published by one store
// of its pointer (record.go); a lookup sees the bucket before the insert or after
// it, never half of it. A rule spanning several buckets is published bucket
// by bucket, like a Delete's re-own: the guarantee is per key.
//
// Insert always lands, on every engine kind and into a bucket of any size; a
// spill record past maxSpillRanges, or any spill of an SRAM-only engine,
// marks the engine overgrown, and the Compact its writer calls next retrains
// it (§6.5: modify in place, or retrain and swap). Insert fails only on an
// invalid or already installed rule, and then stores nothing.
func (e *Engine) Insert(r lpm.Rule) error {
	if err := r.Validate(e.width); err != nil {
		return err
	}
	idx := e.findRule(r.Prefix, r.Len)
	if idx != lpm.NoMatch && e.isLive(idx) {
		return fmt.Errorf("core: rule %s/%d already installed", r.Prefix, r.Len)
	}

	// The boundaries the rule needs and its edge buckets do not have yet: low
	// in the first, and high+1 — which either opens the next bucket or lies in
	// high's range — in the last. A rule deleted from this engine left both
	// of its own behind, so a flap re-owns and nothing else.
	low, high := r.Low(e.width), r.High(e.width)
	first, last := e.bucketOf(low), e.bucketOf(high)
	wf, wl := e.bucketW(first), e.bucketW(last)
	jf, _ := wf.search(low)
	cutLow := wf.low(jf) != low
	next, cutNext := high, false
	if high != keys.MaxValue(e.width) {
		next = high.Inc()
		if e.bucketOf(next) == last {
			jl, _ := wl.search(next)
			cutNext = wl.low(jl) != next
		}
	}
	// gain is the bounds bucket b has to gain: a fresh spill record a bucket.
	gain := func(b int) (n int) {
		if cutLow && b == first {
			n++
		}
		if cutNext && b == last {
			n++
		}
		return n
	}

	if idx == lpm.NoMatch {
		idx = e.rules.Len() + len(e.absorbed)
		e.absorbed = append(e.absorbed, &absorbedRule{ruleID: ruleID{r.Prefix, r.Len}})
		if e.absorbedAt == nil {
			e.absorbedAt = make(map[ruleID]int)
		}
		e.absorbedAt[ruleID{r.Prefix, r.Len}] = idx
		e.lens[r.Len]++
		e.ra.AddRule(r.Action)
	} else {
		e.ra.SetAction(int32(idx), r.Action)
		e.setLive(idx, true)
	}

	// takes reports whether the rule takes over a range at lo owned by o; id
	// is the one the ranges it takes are given, its entry in the action table
	// published before any record holds it.
	takes := func(lo keys.Value, o int32) bool {
		return !lo.Less(low) && !high.Less(lo) && (o == ranges.NoRule || e.rule(int(o)).Len < r.Len)
	}
	id := e.rec.intern(r.Action)
	for b := first; b <= last; b++ {
		w := e.bucketW(b)
		if gain(b) == 0 {
			for j := 0; j < w.n; j++ {
				if takes(w.low(j), w.owner(j)) {
					w.reown(j, int32(idx))
				}
			}
			continue
		}
		// Copy and flip: bucket b with the cuts made and the rule in. A part of
		// a split range inherits the range's owner and action id.
		jLow, jNext := -1, -1 // the ranges the cuts split
		if cutLow && b == first {
			jLow, _ = w.search(low)
		}
		if cutNext && b == last {
			jNext, _ = w.search(next)
		}
		s := newSpillRecord(w.n+gain(b), e.rec.limbs)
		i := 0
		for j := 0; j < w.n; j++ {
			part := func(lo keys.Value) {
				o, oid := w.owner(j), w.id(j)
				if takes(lo, o) {
					o, oid = int32(idx), id
				}
				s.w[s.stride+i] = uint32(o)
				s.put(s.w, i, lo, oid)
				i++
			}
			part(w.low(j))
			if j == jLow {
				part(low)
			}
			if j == jNext {
				part(next)
			}
		}
		e.rec.respill(b, s)
	}
	return nil
}

// Compact is the one retrain trigger of the write path (§6.5). It returns e,
// or, once e is overgrown, an engine rebuilt over e's live rules: when a
// spill record has passed maxSpillRanges, when an SRAM-only engine has
// spilled at all, or when writers have grown the action table past its limit
// (twice what Build interned, plus 1 024 entries) — every write may grow it by
// one value, ModifyAction's new action, Insert's, Delete's covering rule's.
// The fault site compact forces the rebuild. A writer that keeps an engine in
// service calls Compact after each write and publishes a result other than e
// in e's place before it releases its writer lock. A failed rebuild leaves e
// in service, its writes answered from their spill records, to be retried
// after the next write.
func (e *Engine) Compact() *Engine {
	hook := e.cfg.Fault
	if !e.rec.overgrown() && (hook == nil || hook(fault.SiteCompact) == nil) {
		return e
	}
	next, err := e.Rebuild()
	if err != nil {
		return e
	}
	return next
}

// Rebuild is the one rebuild path, Compact's and a commit's: it returns an
// engine retrained over e's live rules, absorbed ones included, plus add —
// between the retrain and swap fault sites, timed, and booked as a failure
// when it fails. Every spill record folds back into a dense bucket: with
// nothing added it is a commit's re-densify. Deleted rules are dropped. e is
// left as it was, so lookups proceed against it until the caller publishes
// the result (§6.5: both versions coexist).
func (e *Engine) Rebuild(add ...lpm.Rule) (next *Engine, err error) {
	start := time.Now()
	defer func() {
		metRebuildMs.ObserveInt(int(time.Since(start).Milliseconds()))
		if err != nil {
			metRebuildErrs.Inc()
		}
	}()
	hook := e.cfg.Fault
	if hook != nil {
		if err := hook(fault.SiteRetrain); err != nil {
			return nil, err
		}
	}
	rs, err := lpm.OwnRuleSet(e.width, append(e.liveRules(len(add)), add...))
	if err != nil {
		return nil, err
	}
	if next, err = Build(rs, e.cfg); err != nil {
		return nil, err
	}
	if hook != nil {
		if err := hook(fault.SiteSwap); err != nil {
			return nil, err
		}
	}
	return next, nil
}
