package core

import (
	"fmt"
	"sync/atomic"

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

// absorbedRule is a rule Insert added after Build. Rule indices are one
// space: rules.Rules first, then Engine.absorbed in arrival order.
type absorbedRule struct {
	lpm.Rule
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

func (e *Engine) rule(i int) *lpm.Rule {
	if n := e.rules.Len(); i >= n {
		return &e.absorbed[i-n].Rule
	}
	return &e.rules.Rules[i]
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
			out = append(out, *e.rule(i))
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

// wbucket is the writer's handle on one bucket's current ranges: the range
// array and the dense record Build laid out, or — once the bucket has spilled
// — the spill record and the owner table behind it. SRAM-only engines
// are the K = 1 case, every range its own bucket.
type wbucket struct {
	view
	e    *Engine
	base int // the bucket's first range in the range array
}

func (e *Engine) bucketW(b int) wbucket {
	return wbucket{view: e.rec.open(b), e: e, base: b * e.rec.k}
}

// bucketOf returns the bucket whose span holds k. Spilling never moves a
// bucket's span, so the built range array still knows.
func (e *Engine) bucketOf(k keys.Value) int { return e.ra.Find(k) / e.rec.k }

func (w wbucket) low(j int) keys.Value {
	if w.spilled && j > 0 {
		return w.l.bound(w.rec, j)
	}
	return w.e.ra.Entries[w.base+j].Low
}

func (w wbucket) owner(j int) int32 {
	if w.spilled {
		return int32(atomic.LoadUint64(&w.rec[w.l.stride+j]))
	}
	return w.e.ra.RuleOf(w.base + j)
}

// find returns the range of the bucket holding k, which its span must hold.
func (w wbucket) find(k keys.Value) (j int) {
	for i := 1; i < w.n && !k.Less(w.low(i)); i++ {
		j = i
	}
	return j
}

// reown hands range j to rule r (or to nobody): owner table first, then the
// record, as Delete has always published.
func (w wbucket) reown(j int, r int32) {
	if w.spilled {
		atomic.StoreUint64(&w.rec[w.l.stride+j], uint64(uint32(r)))
	} else {
		w.e.ra.SetRule(w.base+j, r)
	}
	if r == ranges.NoRule {
		w.setOwner(j, 0, false)
		return
	}
	w.setOwner(j, w.e.rule(int(r)).Action, true)
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

// ownerLen returns the prefix length of the longest live rule of this engine
// matching k, or -1: the delta overlay's tie-break.
func (e *Engine) ownerLen(k keys.Value) int {
	w := e.bucketW(e.bucketOf(k))
	if o := w.owner(w.find(k)); o != ranges.NoRule {
		return e.rule(int(o)).Len
	}
	return -1
}

// SpilledBuckets returns how many buckets answer from a spill record: 0 on a
// freshly built engine, and again after the commit that folds them back.
func (e *Engine) SpilledBuckets() int { return int(e.rec.spilled.Load()) }

// NotAbsorbed is Insert's refusal: nothing was stored, and the rule belongs
// in the delta buffer until a commit rebuilds the engine around it. The value
// is the reason, as neurolpm_insert_buffered_*_total spells it.
type NotAbsorbed string

const (
	// The engine has no record an insert could grow: SRAM-only, tiered (the
	// slow tier keeps its own copy of the bounds), or K too large for word 0
	// to spare the spill bit.
	refusedEngineKind NotAbsorbed = "engine_kind"
	// A bucket the rule would add a boundary to would pass maxSpillRanges (or
	// fault.SiteAbsorb said so).
	refusedBucketFull NotAbsorbed = "bucket_full"
)

func (n NotAbsorbed) Error() string { return "core: insert not absorbed: " + string(n) }

// Insert installs r in the published engine without retraining, when what it
// changes stays inside buckets: the rule adds at most two range boundaries —
// its low, and its high + 1 — and re-owns the ranges of its span whose owner
// is shorter. The directory, the model and every error bound are untouched:
// the RQRMI indexes buckets, and no bucket's span moves (§7).
//
// Re-owning is what Delete does, in place. A bucket that gains a boundary is
// rebuilt — old ranges, the split ones inheriting their parent's owner and
// answer, then the re-own — as a fresh spill record and published by one store
// of its pointer (record.go); a lookup sees the bucket before the insert or after
// it, never half of it. A rule spanning several buckets is published bucket
// by bucket, like a Delete's re-own: the guarantee is per key.
//
// Insert refuses with a NotAbsorbed error before any visible store; any other
// error (an invalid or already installed rule) is the caller's.
func (e *Engine) Insert(r lpm.Rule) error {
	if err := r.Validate(e.width); err != nil {
		return err
	}
	idx := e.findRule(r.Prefix, r.Len)
	if idx != lpm.NoMatch && e.isLive(idx) {
		return fmt.Errorf("core: rule %s/%d already installed", r.Prefix, r.Len)
	}
	if e.dir == nil || e.tiers != nil || e.dir.K > maxSpillK {
		return refusedEngineKind
	}
	if hook := e.cfg.Fault; hook != nil && hook(fault.SiteAbsorb) != nil {
		return refusedBucketFull
	}

	// The boundaries the rule needs and its edge buckets do not have yet: low
	// in the first, and high+1 — which either opens the next bucket or lies in
	// high's range — in the last. A rule deleted from this engine left both
	// of its own behind, so a flap re-owns and nothing else.
	low, high := r.Low(e.width), r.High(e.width)
	first, last := e.bucketOf(low), e.bucketOf(high)
	wf, wl := e.bucketW(first), e.bucketW(last)
	cutLow := wf.low(wf.find(low)) != low
	next, cutNext := high, false
	if high != keys.MaxValue(e.width) {
		next = high.Inc()
		cutNext = e.bucketOf(next) == last && wl.low(wl.find(next)) != next
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
	if wf.n+gain(first) > maxSpillRanges || wl.n+gain(last) > maxSpillRanges {
		return refusedBucketFull
	}

	if idx == lpm.NoMatch {
		idx = e.rules.Len() + len(e.absorbed)
		e.absorbed = append(e.absorbed, &absorbedRule{Rule: r})
		if e.absorbedAt == nil {
			e.absorbedAt = make(map[ruleID]int)
		}
		e.absorbedAt[ruleID{r.Prefix, r.Len}] = idx
		e.lens[r.Len]++
		e.ra.AddRule(r.Action)
	} else {
		e.rule(idx).Action = r.Action
		e.ra.SetAction(int32(idx), r.Action)
		e.setLive(idx, true)
	}

	// takes reports whether the rule takes over a range at lo owned by o.
	takes := func(lo keys.Value, o int32) bool {
		return !lo.Less(low) && !high.Less(lo) && (o == ranges.NoRule || e.rule(int(o)).Len < r.Len)
	}
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
		// a split range inherits the range's owner and answer.
		jLow, jNext := -1, -1 // the ranges the cuts split
		if cutLow && b == first {
			jLow = w.find(low)
		}
		if cutNext && b == last {
			jNext = w.find(next)
		}
		s := newSpillRecord(w.n+gain(b), e.rec.limbs)
		i := 0
		for j := 0; j < w.n; j++ {
			part := func(lo keys.Value) {
				o := w.owner(j)
				a, ok := w.resolve(j)
				if takes(lo, o) {
					o, a, ok = int32(idx), r.Action, true
				}
				s.w[s.stride+i] = uint64(uint32(o))
				s.put(s.w, i, lo, a, ok)
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
	e.epoch.Bump()
	return nil
}
