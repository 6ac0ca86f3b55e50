package core

import (
	"sync"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/plane"
	"neurolpm/internal/telemetry"
)

// This file is the stack executor (DESIGN.md §14): the one implementation of
// the composable lookup-plane pipeline — optional result-cache probe →
// inference (compiled, reference or quantized) → bounded secondary search →
// bucket fetch — that every exported Lookup* entry point wraps with a constant
// plane.StackConfig. The per-plane arms (lookup, lookupReference,
// finishBatch, the cached probe/fill bodies below) are the same out-of-line
// functions the pre-stack entry points compiled to, so dispatching on a
// constant config adds no work to the hot paths; the equivalence of every
// configuration against the trie oracle is enforced by
// internal/planetest (FuzzStackVsOracle, TestLookupEntryPointsEquivalent).

// LookupStack answers one key through the stack selected by st. c is the
// result cache for Cached stacks (nil degrades to the uncached pipeline with
// outcome None); uncached stacks ignore it.
func (e *Engine) LookupStack(st plane.StackConfig, k keys.Value, c *lcache.Cache) (action uint64, ok bool, o lcache.Outcome) {
	if st.Cached {
		return e.lookupCachedStack(st.Inference, k, c)
	}
	// Branch straight to the inference arm (no lookupInfer hop): single-key
	// stack dispatch stays one call frame over the inlined Lookup wrapper.
	switch st.Inference {
	case plane.Reference:
		tr := e.lookupReference(k, cachesim.Null{}, nil)
		return tr.Action, tr.Matched, lcache.None
	case plane.Quantized:
		tr := e.lookupQuantized(k, cachesim.Null{}, nil)
		return tr.Action, tr.Matched, lcache.None
	}
	tr := e.lookup(k, cachesim.Null{}, nil)
	return tr.Action, tr.Matched, lcache.None
}

// lookupInfer is the uncached single-key spine: run the inf-selected inference
// plane and the shared post-inference tail, returning the full trace. sp is
// LookupSpan's span; every other caller passes nil.
func (e *Engine) lookupInfer(inf plane.Inference, k keys.Value, mem cachesim.Mem, sp *telemetry.Span) Trace {
	switch inf {
	case plane.Reference:
		return e.lookupReference(k, mem, sp)
	case plane.Quantized:
		return e.lookupQuantized(k, mem, sp)
	}
	return e.lookup(k, mem, sp)
}

// lookupCachedStack is the cached single-key arm: probe c at the epoch loaded
// before any engine state is read, fill misses through the inf-selected
// inference plane. The caller must own c exclusively for the duration (see
// lcache's single-owner contract); c == nil or an armed bypass degrades to
// the uncached pipeline with outcome None.
func (e *Engine) lookupCachedStack(inf plane.Inference, k keys.Value, c *lcache.Cache) (action uint64, ok bool, o lcache.Outcome) {
	if c.Bypassed(1) {
		tr := e.lookupInfer(inf, k, cachesim.Null{}, nil)
		return tr.Action, tr.Matched, lcache.None
	}
	// Flight sampling for the probe stage rides the cache's own plain tick
	// (the hit path must stay free of extra atomics). A probe-stage record
	// covers the whole cached query: on a hit it is probe-only; on a miss
	// the engine time shows up as total − probe, while the engine's own
	// independently-sampled records carry the stage split.
	var fr *telemetry.FlightRecord
	if telemetry.Flight.HitN(c.SampleTick()) {
		var rec telemetry.FlightRecord
		fr = &rec
		fr.Begin(k.Hi, k.Lo)
	}
	epoch := e.epoch.Load()
	action, ok, o = c.Get(k, epoch)
	fr.Stamp(plane.StageProbe)
	if o != lcache.Hit {
		tr := e.lookupInfer(inf, k, cachesim.Null{}, nil)
		action, ok = tr.Action, tr.Matched
		c.Put(k, epoch, action, ok)
	}
	if fr != nil {
		fr.Cache = uint8(o)
		fr.Shard = e.shardID
		fr.Action = action
		fr.Matched = ok
		telemetry.Flight.Commit(fr)
	}
	return action, ok, o
}

// LookupBatchStack resolves ks positionally through the stack selected by st:
// out[i] answers ks[i] (out is reused when it has capacity). Cached stacks
// probe every key first, resolve only the misses through the inference plane,
// and fill on the way out; epoch must then be the caller's
// CacheEpoch().Load() taken BEFORE any staleness check on surrounding state
// — ShardedUpdatable loads it before consulting PendingInserts; loading it
// later would let an update land in between, and the pre-update answers would
// be cached under the post-update epoch. DRAM bucket fetches route through mem.
func (e *Engine) LookupBatchStack(st plane.StackConfig, ks []keys.Value, out []BatchResult, mem cachesim.Mem, c *lcache.Cache, epoch uint64) []BatchResult {
	if st.Cached && !c.Bypassed(len(ks)) {
		return e.lookupBatchCachedStack(st.Inference, ks, out, mem, c, epoch)
	}
	if cap(out) < len(ks) {
		out = make([]BatchResult, len(ks))
	}
	out = out[:len(ks)]
	e.runBatch(st.Inference, ks, mem, out)
	return out
}

// runBatch is the inference plane of the batch stack — compiled or quantized
// pipelined blocks, or per-key reference arithmetic — driving the shared
// instrumented tail: out[i] answers ks[i].
func (e *Engine) runBatch(inf plane.Inference, ks []keys.Value, mem cachesim.Mem, out []BatchResult) {
	if inf == plane.Reference {
		for i, k := range ks {
			tr := e.lookupReference(k, mem, nil)
			out[i] = BatchResult{Action: tr.Action, Matched: tr.Matched}
		}
		return
	}
	e.finishBatch(inf, ks, mem, out)
}

// missScratch carries one batch's miss gather buffers; pooled so concurrent
// cached batches stay allocation-free (pinned by TestCachedBatchZeroAllocs).
type missScratch struct {
	idx  []int32
	keys []keys.Value
	res  []BatchResult // the misses' answers, by position in keys
}

var missScratchPool = sync.Pool{New: func() any { return new(missScratch) }}

// lookupBatchCachedStack is the cached batch arm: probe all keys at the
// caller-loaded epoch, gather the misses, resolve them through the
// inf-selected inference plane, scatter the answers back and fill the cache
// on the way out.
func (e *Engine) lookupBatchCachedStack(inf plane.Inference, ks []keys.Value, out []BatchResult, mem cachesim.Mem, c *lcache.Cache, epoch uint64) []BatchResult {
	if cap(out) < len(ks) {
		out = make([]BatchResult, len(ks))
	}
	out = out[:len(ks)]
	sc := missScratchPool.Get().(*missScratch)
	miss := sc.idx[:0]
	for i, k := range ks {
		a, m, o := c.Get(k, epoch)
		if o == lcache.Hit {
			out[i] = BatchResult{Action: a, Matched: m}
		} else {
			miss = append(miss, int32(i))
		}
	}
	if len(miss) > 0 {
		if cap(sc.keys) < len(miss) {
			sc.keys = make([]keys.Value, len(miss))
			sc.res = make([]BatchResult, len(miss))
		}
		mk, mr := sc.keys[:len(miss)], sc.res[:len(miss)]
		for j, i := range miss {
			mk[j] = ks[i]
		}
		e.runBatch(inf, mk, mem, mr)
		for j, r := range mr {
			out[miss[j]] = r
			c.Put(mk[j], epoch, r.Action, r.Matched)
		}
	}
	sc.idx = miss
	missScratchPool.Put(sc)
	return out
}

// LookupStack answers one key against the delta overlay + engine through the
// stack selected by st (the Updatable analogue of Engine.LookupStack).
func (u *Updatable) LookupStack(st plane.StackConfig, k keys.Value, c *lcache.Cache) (action uint64, ok bool, o lcache.Outcome) {
	if st.Cached {
		return u.lookupCachedStack(st.Inference, k, c)
	}
	action, ok = u.lookupOverlay(st.Inference, k)
	return action, ok, lcache.None
}

// lookupCachedStack is the Updatable's cached single-key arm. The epoch is
// loaded before either the delta or the engine is read, so a fill can never
// carry a pre-update answer under a post-update stamp.
func (u *Updatable) lookupCachedStack(inf plane.Inference, k keys.Value, c *lcache.Cache) (action uint64, ok bool, o lcache.Outcome) {
	if c.Bypassed(1) {
		action, ok = u.lookupOverlay(inf, k)
		return action, ok, lcache.None
	}
	eng := u.engine.Load()
	var fr *telemetry.FlightRecord
	if telemetry.Flight.HitN(c.SampleTick()) {
		var rec telemetry.FlightRecord
		fr = &rec
		fr.Begin(k.Hi, k.Lo)
	}
	epoch := eng.epoch.Load()
	action, ok, o = c.Get(k, epoch)
	fr.Stamp(plane.StageProbe)
	if o != lcache.Hit {
		action, ok = u.lookupOverlay(inf, k)
		c.Put(k, epoch, action, ok)
	}
	if fr != nil {
		fr.Cache = uint8(o)
		fr.Shard = eng.shardID
		fr.Action = action
		fr.Matched = ok
		telemetry.Flight.Commit(fr)
	}
	return action, ok, o
}
