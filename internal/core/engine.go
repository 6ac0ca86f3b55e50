// Package core implements the NeuroLPM engine — the paper's primary
// contribution (§4): an LPM engine whose query path is RQRMI inference
// followed by a bounded secondary search, with optional bucketization to
// scale past on-chip SRAM.
//
// Build performs the offline rule-set preparation stage:
//
//  1. conversion of LPM rules into a sorted range array (§5.1),
//  2. optional bucketization when the array exceeds the SRAM budget (§7),
//  3. RQRMI training over the SRAM-resident RQ Array.
//
// Lookup executes the online query path of Figure 3: inference → secondary
// search → (bucketized designs only) one bucket fetch from DRAM → bucket
// search.
package core

import (
	"fmt"
	"sync/atomic"

	"neurolpm/internal/bucket"
	"neurolpm/internal/cachesim"
	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/tier"
)

// Config configures an engine build.
type Config struct {
	// BucketSize is the number of ranges per bucket. Zero selects the
	// SRAM-only design (the whole range array is the RQ Array). The paper's
	// DRAM evaluation uses 32-byte buckets, i.e. 8 ranges of 4 bytes.
	BucketSize int
	// Model configures RQRMI training; the zero value selects
	// rqrmi.DefaultConfig.
	Model rqrmi.Config
	// Fault, when non-nil, is consulted at the update-path injection
	// sites (retrain, swap, delta-full — see internal/fault). The query
	// path never fires it; production builds leave it nil and pay one
	// nil-check per commit/insert. The hook rides Config so engine
	// rebuilds (InsertBatch → Build) inherit it automatically.
	Fault fault.Hook
	// Tier enables the two-tier bucket store (DESIGN.md §16) for bucketized
	// engines of width ≤ 64. Like Fault it rides Config so rebuilds inherit
	// it; a rebuilt engine starts all-fast and re-learns placement.
	Tier tier.Config
}

// DefaultConfig returns the paper's evaluated configuration: 32-byte buckets
// (8 × 4-byte ranges) and the 1/4/64 RQRMI model.
func DefaultConfig() Config {
	return Config{BucketSize: 8, Model: rqrmi.DefaultConfig()}
}

// SRAMOnlyConfig returns the SRAM-only design (§6): no bucketization.
func SRAMOnlyConfig() Config {
	return Config{Model: rqrmi.DefaultConfig()}
}

// Engine is a built NeuroLPM engine. It is safe for concurrent lookups, also
// beside one writer; the updates (Insert, Delete, ModifyAction) require
// external synchronization among themselves (Updatable provides it).
type Engine struct {
	cfg   Config
	width int
	rules *lpm.RuleSet
	// dead is the tombstone bitset (bit i: rules.Rules[i] was deleted). No
	// read path consults it, but writers may overlap (a background commit's
	// InsertBatch beside a Delete), so its words are atomic.
	dead []atomic.Uint64
	// absorbed are the rules Insert added to this engine after Build, rule
	// index rules.Len()+i, found through absorbedAt; lens counts the rules,
	// dead ones included, of each prefix length (insert.go).
	absorbed   []*absorbedRule
	absorbedAt map[ruleID]int
	lens       []int
	ra         *ranges.Array
	rec        *records          // what every lookup answers from; see record.go
	dir        *bucket.Directory // nil in the SRAM-only design
	model      *rqrmi.Model
	stats      *rqrmi.Stats

	// Observability-plane attachments (DESIGN.md §13): drift watches the
	// observed secondary search against the compiled probe ceiling, hot
	// sketches per-bucket access frequency, shardID tags flight records.
	// Build creates both — a rebuilt engine gets fresh meters because a new
	// model means a new bound and new bucket geometry — and only the sampled
	// 1:sampleEvery branch ever feeds them.
	shardID int32
	drift   *telemetry.DriftMeter
	hot     *telemetry.HotSketch

	// The compiled query plane (DESIGN.md §10): comp mirrors model + index
	// in flat devirtualized storage and serves every hot lookup; the model
	// remains the reference arithmetic (LookupReference, Verify). quant is
	// the int32 fixed-point re-encoding of the same model (DESIGN.md §15),
	// carrying its own error bounds recomputed in the integer arithmetic —
	// selected per lookup by plane.StackConfig.Inference. Both are immutable
	// after build: updates re-own ranges, rewrite actions or split a range
	// inside its bucket, but never move a directory boundary.
	comp  *rqrmi.Compiled
	quant *rqrmi.Quantized

	// tiers is the two-tier bucket placement map (DESIGN.md §16), non-nil
	// only when cfg.Tier enables it on a bucketized ≤ 64-bit engine. The
	// disabled configuration pays a single nil check per bucket fetch.
	tiers *tier.Store

	// epoch is the result-cache invalidation counter (DESIGN.md §12). Every
	// post-build mutation — tombstone Delete, ModifyAction — bumps it, and
	// InsertBatch hands the same pointer to the rebuilt engine so the counter
	// is monotonic across an Updatable lineage's engine swaps (an epoch that
	// restarted at 1 per engine would let a stale entry from a prior engine
	// collide with a live epoch).
	epoch *lcache.Epoch
}

// CacheEpoch exposes the engine's result-cache invalidation counter.
// Lookup-cache users load it before touching engine state and stamp fills
// with the loaded value (see internal/lcache).
func (e *Engine) CacheEpoch() *lcache.Epoch { return e.epoch }

// CacheEpoch returns the lineage's invalidation counter (stable across
// commits: InsertBatch propagates the pointer into every rebuilt engine).
func (u *Updatable) CacheEpoch() *lcache.Epoch { return u.engine.Load().epoch }

// Build runs the offline preparation stage on the rule-set.
func Build(rs *lpm.RuleSet, cfg Config) (*Engine, error) {
	if rs == nil {
		return nil, fmt.Errorf("core: nil rule-set")
	}
	if cfg.Model.StageWidths == nil {
		cfg.Model = rqrmi.DefaultConfig()
	}
	if cfg.BucketSize == 1 || cfg.BucketSize < 0 {
		return nil, fmt.Errorf("core: invalid bucket size %d", cfg.BucketSize)
	}
	ra, err := ranges.Convert(rs)
	if err != nil {
		return nil, fmt.Errorf("core: range conversion: %w", err)
	}
	e := &Engine{
		cfg:   cfg,
		width: rs.Width,
		rules: rs.Clone(),
		dead:  make([]atomic.Uint64, (rs.Len()+63)/64),
		lens:  rs.PrefixHistogram(),
		ra:    ra,
		epoch: new(lcache.Epoch),
	}
	var ix rqrmi.Index = ra
	if cfg.BucketSize >= 2 {
		d, err := bucket.Build(ra, cfg.BucketSize)
		if err != nil {
			return nil, err
		}
		e.dir = d
		ix = d
	}
	model, stats, err := rqrmi.Train(ix, rs.Width, cfg.Model)
	if err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}
	e.model = model
	e.stats = stats
	if err := e.compilePlane(ix); err != nil {
		return nil, err
	}
	e.attachObservers(ix)
	return e, nil
}

// attachObservers creates the engine's drift meter and hotness sketch from
// the query planes (probe ceiling) and learned-index geometry (bucket count;
// for SRAM-only engines the "buckets" are the ranges themselves). The drift
// bound is the max of the compiled and quantized ceilings, so the meter never
// flags a healthy quantized lookup whose (slightly looser) integer bound
// admits more probes than the float plane's.
func (e *Engine) attachObservers(ix rqrmi.Index) {
	e.drift = telemetry.NewDriftMeter()
	bound := e.comp.MaxErr()
	if qb := e.quant.MaxErr(); qb > bound {
		bound = qb
	}
	e.drift.SetBound(bound)
	e.hot = telemetry.NewHotSketch(ix.Len())
}

// compilePlane flattens the trained model and index into the compiled query
// plane and its fixed-point re-encoding, and lays the range array out as the
// records every lookup answers from.
func (e *Engine) compilePlane(ix rqrmi.Index) error {
	c, err := rqrmi.Compile(e.model, ix)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.comp = c
	q, err := c.Quantize(e.model, ix)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	e.quant = q
	k := 1 // SRAM-only: every range is its own record
	if e.dir != nil {
		k = e.dir.K
	}
	e.rec = newRecords(e.ra, k)
	if e.dir != nil && e.width <= 64 && e.cfg.Tier.Enabled {
		// The tier store demotes by copying a bucket's bounds out of a flat
		// array; only a tiered engine pays for one.
		lows := make([]uint64, e.ra.Len())
		for i := range lows {
			lows[i] = e.ra.Entries[i].Low.Lo
		}
		e.tiers = tier.New(lows, k, e.ra.BytesPerEntry(), e.cfg.Tier)
	}
	return nil
}

// BuildWithModel assembles an engine around a previously trained and
// serialized model, skipping training — the deployment path where the
// control plane trains once and ships the model to the data plane (§6.5).
// The model must have been trained on exactly the RQ Array this rule-set
// and bucket size produce; a cheap shape check rejects mismatches and a
// full analytical verification can be requested.
func BuildWithModel(rs *lpm.RuleSet, cfg Config, m *rqrmi.Model, verify bool) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("core: nil model")
	}
	if cfg.BucketSize == 1 || cfg.BucketSize < 0 {
		return nil, fmt.Errorf("core: invalid bucket size %d", cfg.BucketSize)
	}
	ra, err := ranges.Convert(rs)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		width: rs.Width,
		rules: rs.Clone(),
		dead:  make([]atomic.Uint64, (rs.Len()+63)/64),
		lens:  rs.PrefixHistogram(),
		ra:    ra,
		model: m,
		epoch: new(lcache.Epoch),
	}
	var ix rqrmi.Index = ra
	if cfg.BucketSize >= 2 {
		d, err := bucket.Build(ra, cfg.BucketSize)
		if err != nil {
			return nil, err
		}
		e.dir = d
		ix = d
	}
	if m.Width != rs.Width || m.N != ix.Len() {
		return nil, fmt.Errorf("core: model shape (width %d, N %d) does not match RQ Array (width %d, N %d)",
			m.Width, m.N, rs.Width, ix.Len())
	}
	if verify {
		if ok, witness := m.Verify(ix); !ok {
			return nil, fmt.Errorf("core: model error bound violated at key %v", witness)
		}
	}
	if err := e.compilePlane(ix); err != nil {
		return nil, err
	}
	e.attachObservers(ix)
	return e, nil
}

// Width returns the key bit width.
func (e *Engine) Width() int { return e.width }

// Model exposes the trained RQRMI model (read-only use).
func (e *Engine) Model() *rqrmi.Model { return e.model }

// Compiled exposes the flat query plane serving the hot lookup path.
func (e *Engine) Compiled() *rqrmi.Compiled { return e.comp }

// Quantized exposes the int32 fixed-point query plane (DESIGN.md §15).
func (e *Engine) Quantized() *rqrmi.Quantized { return e.quant }

// TrainStats returns statistics from the build's training phase.
func (e *Engine) TrainStats() *rqrmi.Stats { return e.stats }

// DriftMeter exposes the engine's model-drift meter (observed secondary
// search vs the compiled probe ceiling).
func (e *Engine) DriftMeter() *telemetry.DriftMeter { return e.drift }

// HotSketch exposes the engine's decaying bucket-hotness sketch.
func (e *Engine) HotSketch() *telemetry.HotSketch { return e.hot }

// TierStore exposes the two-tier bucket placement map, or nil when the
// engine is untiered (SRAM-only, width > 64, or cfg.Tier disabled).
func (e *Engine) TierStore() *tier.Store { return e.tiers }

// RebalanceTier runs one tier placement pass driven by the engine's hotness
// sketch (demotions) and the store's burst counters (promotions), then
// publishes any migration through the per-shard cache epoch: a placement
// change is an engine-state change, so cached planes re-probe instead of
// trusting entries filled under the previous tier map. No-op (0,0) on
// untiered engines.
func (e *Engine) RebalanceTier() (promoted, demoted int) {
	if e.tiers == nil {
		return 0, 0
	}
	promoted, demoted = e.tiers.Rebalance(e.hot)
	if promoted+demoted > 0 {
		e.epoch.Bump()
	}
	return promoted, demoted
}

// SetShardID tags the engine's flight records with its shard index (the
// sharded router calls this at build; rebuilds inherit it via InsertBatch).
func (e *Engine) SetShardID(id int) { e.shardID = int32(id) }

// Ranges exposes the underlying range array (read-only use).
func (e *Engine) Ranges() *ranges.Array { return e.ra }

// Directory returns the bucket directory, or nil for SRAM-only engines.
func (e *Engine) Directory() *bucket.Directory { return e.dir }

// Bucketized reports whether the engine uses the DRAM design.
func (e *Engine) Bucketized() bool { return e.dir != nil }

// Lookup returns the action of the longest-prefix rule matching k.
// ok is false when no live rule matches.
//
// Equivalence contract: every Lookup* entry point — single-key or batch, Mem
// or not, cached or not, on any inference plane, directly or through the
// sharded router — must return exactly what the trie oracle returns for every key,
// including misses. Lookup is the stack executor's compiled-uncached
// configuration (LookupStack with the zero plane.StackConfig); the contract
// across the full configuration matrix is enforced by the parameterized
// harness in internal/planetest (FuzzStackVsOracle,
// TestLookupEntryPointsEquivalent).
func (e *Engine) Lookup(k keys.Value) (action uint64, ok bool) {
	tr := e.lookup(k, cachesim.Null{}, nil)
	return tr.Action, tr.Matched
}

// Trace describes one query's path through the engine, in the units the
// paper's evaluation reports.
type Trace struct {
	Prediction rqrmi.Prediction
	SRAMProbes int  // secondary-search probes into the RQ Array (SRAM)
	BucketRead bool // whether a DRAM bucket fetch was needed
	ColdRead   bool // the bucket fetch was served from the slow tier (§16)
	// Spilled: the bucket answered from a spill record, one dependent line
	// past the fetch (an absorbed insert split a range; reset by a commit).
	Spilled   bool
	DRAMBytes int // bytes requested from DRAM (before caching)
	// RangeIndex is the resolved range: bucket·K + its position in the
	// bucket's record — the index in the built range array, except that a
	// spilled bucket's positions run on past K.
	RangeIndex int
	Action     uint64
	Matched    bool
}

// LookupMem executes the query, routing any DRAM-resident accesses through
// mem (a cache or traffic counter). For the SRAM-only design no accesses are
// issued. The returned trace carries the per-query statistics.
func (e *Engine) LookupMem(k keys.Value, mem cachesim.Mem) Trace {
	return e.lookup(k, mem, nil)
}

// LookupSpan executes the query on the inf-selected inference plane while
// recording a fully-annotated span: per-stage timings (inference → secondary
// search → bucket fetch), the inference error bound, probe counts and DRAM
// traffic. It is the /trace endpoint's implementation; the span costs clock
// reads and allocation, so the plain Lookup paths pass a nil span instead. The
// span's first stage is labeled after the arm that ran ("inference",
// "reference-inference" or "quantized-inference"), so /trace output
// identifies the arithmetic that produced the prediction.
func (e *Engine) LookupSpan(inf plane.Inference, k keys.Value, mem cachesim.Mem) (Trace, *telemetry.Span) {
	sp := telemetry.StartSpan("lookup")
	tr := e.lookupInfer(inf, k, mem, sp)
	sp.Set("key", k.String())
	sp.Set("predicted_index", tr.Prediction.Index)
	sp.Set("error_bound", tr.Prediction.Err)
	sp.Set("submodel", tr.Prediction.Submodel)
	sp.Set("sram_probes", tr.SRAMProbes)
	sp.Set("bucket_read", tr.BucketRead)
	sp.Set("cold_read", tr.ColdRead)
	sp.Set("spill_read", tr.Spilled)
	sp.Set("dram_bytes", tr.DRAMBytes)
	sp.Set("range_index", tr.RangeIndex)
	sp.Set("matched", tr.Matched)
	if tr.Matched {
		sp.Set("action", tr.Action)
	}
	sp.End()
	return tr, sp
}

// lookup is the single instrumented implementation behind Lookup, LookupMem
// and LookupSpan: one compiled-plane inference, one bounded secondary
// search, and (for bucketized engines) exactly one DRAM bucket fetch.
// Telemetry counters are always updated; stage timings are recorded only
// when sp is non-nil or the query drew a flight-recorder sample.
func (e *Engine) lookup(k keys.Value, mem cachesim.Mem, sp *telemetry.Span) Trace {
	var tr Trace
	// One counter tick serves three masters: the exact lookups_total count,
	// the 1:sampleEvery distribution sampling in finish, and the
	// flight-recorder sampling decision — no second atomic on the hot path.
	n := metLookups.Inc()
	var fr *telemetry.FlightRecord
	if telemetry.Flight.HitN(n) {
		var rec telemetry.FlightRecord // stack-allocated; Commit copies it out
		fr = &rec
		fr.Begin(k.Hi, k.Lo)
	}
	end := sp.Stage("inference")
	tr.Prediction = e.comp.Predict(k)
	end()
	fr.Stamp(plane.StageInference)
	e.finish(k, &tr, mem, sp, plane.Compiled, n, fr)
	return tr
}

// lookupQuantized is the quantized-inference single-key arm: the same
// instrumented pipeline as lookup, with prediction and bounded search running
// the int32 fixed-point plane (and its own error bounds) instead of the
// float32 one. It feeds the flight recorder like the compiled arm — both are
// production planes; only the reference arm is excluded.
func (e *Engine) lookupQuantized(k keys.Value, mem cachesim.Mem, sp *telemetry.Span) Trace {
	var tr Trace
	n := metLookups.Inc()
	var fr *telemetry.FlightRecord
	if telemetry.Flight.HitN(n) {
		var rec telemetry.FlightRecord
		fr = &rec
		fr.Begin(k.Hi, k.Lo)
	}
	end := sp.Stage("quantized-inference")
	tr.Prediction = e.quant.Predict(k)
	end()
	fr.Stamp(plane.StageInference)
	e.finish(k, &tr, mem, sp, plane.Quantized, n, fr)
	return tr
}

// finish runs the post-inference pipeline for one key — secondary search,
// tail, counters — shared by every single-key inference arm. inf selects the
// bounded-search arithmetic matching the caller's prediction: the search must
// consume the same plane's error bound it was predicted under (quantized
// bounds cover quantized predictions, not float ones), after which all three
// arms land on the identical true index — per Verify. tr.Prediction must
// already be populated; n is the caller's lookup-counter tick
// (metLookups.Inc()) and fr the in-flight sample, nil for most queries.
func (e *Engine) finish(k keys.Value, tr *Trace, mem cachesim.Mem, sp *telemetry.Span, inf plane.Inference, n uint64, fr *telemetry.FlightRecord) {
	end := sp.Stage("secondary-search")
	var b int
	b, tr.SRAMProbes = e.search(inf, k, tr.Prediction)
	end()
	fr.Stamp(plane.StageSearch)
	if e.dir != nil {
		end = sp.Stage("bucket-fetch")
		tr.BucketRead = true
		tr.DRAMBytes = e.dir.BucketBytes()
	}
	var j, cmp int
	j, cmp, tr.Action, tr.Matched, tr.Spilled, tr.ColdRead = e.fetch(k, b, mem, inf)
	tr.RangeIndex = b*e.rec.k + j
	if e.dir != nil {
		end()
		fr.Stamp(plane.StageFetch)
	}
	if n&(sampleEvery-1) == 0 {
		e.observe(b, tr.SRAMProbes, tr.Prediction.Err, cmp)
	}
	if fr != nil {
		e.commit(fr, tr.SRAMProbes, tr.Prediction.Err, tr.Action, tr.Matched)
	}
	e.count(1, b2u(tr.Matched), b2u(tr.Spilled))
}

// b2u is b as a count of one.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// search is the bounded secondary search over the RQ Array in inf's
// arithmetic: the bucket (or, SRAM-only, the range) containing k.
func (e *Engine) search(inf plane.Inference, k keys.Value, p rqrmi.Prediction) (b, probes int) {
	switch inf {
	case plane.Reference:
		var ix rqrmi.Index = e.ra
		if e.dir != nil {
			ix = e.dir
		}
		return e.model.Search(ix, k, p)
	case plane.Quantized:
		return e.quant.Search(k, p)
	}
	return e.comp.Search(k, p)
}

// count books n finished lookups, one key from finish or a block from
// finishBatch. Fetches go before the bucketized lookups they served, so a
// reader that loads bucketized first never sees it ahead. The dependent line
// a spilled bucket costs past its fetch is booked apart, so the §7 pair stays
// exact.
func (e *Engine) count(n, matched, spilled uint64) {
	if e.dir != nil {
		e.dir.CountFetches(n)
		metBucketized.Add(n)
	}
	if matched != 0 {
		metMatched.Add(matched)
	}
	if spilled != 0 {
		metSpillFetches.Add(spilled)
	}
}

// The tail of a lookup, from b, the index its secondary search found, is three
// steps — fetch, observe, commit — that finish runs for one key and
// finishBatch for each key of a block; none books a counter (see count).
//
// fetch is the first: bucketized engines fetch exactly one bucket and scan its
// record — the spill record, when word 0 says the bucket has one — and the
// answer comes out of the same record. j is the key's position in the record
// (0 in the SRAM-only design, whose records hold one range).
func (e *Engine) fetch(k keys.Value, b int, mem cachesim.Mem, inf plane.Inference) (j, cmp int, action uint64, matched, spilled, cold bool) {
	if e.dir == nil {
		action, matched = e.rec.open(b).resolve(0)
		return 0, 0, action, matched, false, false
	}
	mem.Read(e.dir.DRAMAddr(b))
	// Tiered engines route the fetch through the placement map first: a
	// cold bucket scans its slow-tier copy (same bounds, same answer —
	// only the charged latency and the tier counters differ). The
	// reference arm keeps the paper's scan over the range array — over
	// the spill record's own bounds table for a spilled bucket — which
	// Verify holds the record scan against.
	if t := e.tiers; t != nil {
		kk := k.Lo
		if k.Hi != 0 {
			kk = ^uint64(0) // out-of-domain key: above every ≤ 64-bit bound
		}
		j, cmp, cold = t.Fetch(b, kk)
	}
	if inf != plane.Reference && !cold {
		j, cmp, action, matched, spilled = e.rec.answer(b, k)
		return j, cmp, action, matched, spilled, false
	}
	v := e.rec.open(b)
	switch {
	case cold:
		j -= b * e.dir.K
	case v.spilled:
		j, cmp = v.search(k)
	default:
		j, cmp = e.dir.Search(b, k)
		j -= b * e.dir.K
	}
	action, matched = v.resolve(j)
	return j, cmp, action, matched, v.spilled, cold
}

// observe feeds the per-query distributions. Callers sample it 1:sampleEvery
// on the key's lookup-counter tick: an uncontended atomic RMW costs ~5ns on the
// reference machine, so observing three histograms on every query would alone
// blow the ≤2% overhead budget. Counters stay exact — only distribution shape
// is sampled. The drift meter and hotness sketch ride the same sampled branch,
// so their marginal hot-path cost is a fraction of a nanosecond per lookup.
func (e *Engine) observe(b, probes, errBound, cmp int) {
	metProbes.ObserveInt(probes)
	metInferErr.ObserveInt(errBound)
	if e.dir != nil {
		metBucketCmp.ObserveInt(cmp)
	}
	if e.drift != nil {
		e.drift.Observe(probes)
		e.hot.Touch(uint32(b))
	}
}

// commit closes a flight-sampled key's record.
func (e *Engine) commit(fr *telemetry.FlightRecord, probes, errBound int, action uint64, matched bool) {
	fr.Probes = int32(probes)
	fr.ErrBound = int32(errBound)
	fr.Shard = e.shardID
	fr.Action = action
	fr.Matched = matched
	fr.BucketRead = e.dir != nil
	telemetry.Flight.Commit(fr)
}

// LookupReference answers k through the reference-inference arm of the stack
// executor: Model.Predict's pointer-chasing LUT walk and the Index-interface
// bounded search, with the same telemetry and DRAM accounting as Lookup. It
// is LookupStack with the reference-uncached configuration, and it obeys the
// same equivalence contract as Lookup: bit-identical to the compiled plane
// and to the trie oracle on every key (enforced per-build by Verify and
// across the matrix by internal/planetest's parameterized harness). Only the
// cost differs.
func (e *Engine) LookupReference(k keys.Value) (action uint64, ok bool) {
	tr := e.lookupReference(k, cachesim.Null{}, nil)
	return tr.Action, tr.Matched
}

// LookupQuantized answers k through the quantized-inference arm of the stack
// executor: int32 shift-add inference and a bounded search driven by the
// plane's own integer-arithmetic error bounds. It is LookupStack with the
// quantized-uncached configuration and obeys the same oracle-equivalence
// contract as Lookup; only the cost differs.
func (e *Engine) LookupQuantized(k keys.Value) (action uint64, ok bool) {
	tr := e.lookupQuantized(k, cachesim.Null{}, nil)
	return tr.Action, tr.Matched
}

// lookupReference is the reference-inference single-key arm shared by
// LookupReference, the stack executor and the reference batch plane.
func (e *Engine) lookupReference(k keys.Value, mem cachesim.Mem, sp *telemetry.Span) Trace {
	var tr Trace
	n := metLookups.Inc()
	end := sp.Stage("reference-inference")
	tr.Prediction = e.model.Predict(k)
	end()
	// The reference path is for differential tests — it never feeds
	// the flight recorder, whose records describe the production planes.
	e.finish(k, &tr, mem, sp, plane.Reference, n, nil)
	return tr
}

// BatchResult is one LookupBatch answer.
type BatchResult struct {
	Action  uint64
	Matched bool
}

// LookupBatch resolves ks positionally: out[i] answers ks[i]. The batch runs in
// blocks of rqrmi.Block keys, every step of the pipeline across the block
// before the next (finishBatch), so the loads of its keys overlap instead of
// serializing per lookup. out is reused when it has capacity, so a caller
// looping over batches performs zero allocations. Batch answers obey the same
// oracle-equivalence contract as Lookup (LookupBatch is the batch stack
// executor's compiled-uncached configuration; see internal/planetest).
func (e *Engine) LookupBatch(ks []keys.Value, out []BatchResult) []BatchResult {
	return e.LookupBatchStack(plane.StackConfig{}, ks, out, cachesim.Null{}, nil, 0)
}

// finishBatch answers ks on the compiled or quantized plane (the reference
// plane loops the single-key path instead): out[i] answers ks[i].
//
// Each block of rqrmi.Block keys is staged the way the paper's engine is
// (§6.2) — blocked inference, the block's secondary searches in lockstep, a
// touch of every key's record, then every key's tail — so at each step the
// block's misses are outstanding together, and its counters are booked once.
// Inference was pipelined across the block, so a flight-sampled key's record
// times search onward: the key is searched again by itself, after the block's
// search, then its tail.
func (e *Engine) finishBatch(inf plane.Inference, ks []keys.Value, mem cachesim.Mem, out []BatchResult) {
	var (
		preds  [rqrmi.Block]rqrmi.Prediction
		bkt    [rqrmi.Block]int
		probes [rqrmi.Block]int
	)
	for start := 0; start < len(ks); start += rqrmi.Block {
		n := min(len(ks)-start, rqrmi.Block)
		blk, res := ks[start:start+n], out[start:start+n]
		if inf == plane.Quantized {
			e.quant.PredictBatch(blk, preds[:n])
			e.quant.SearchBlock(blk, preds[:n], bkt[:n], probes[:n])
		} else {
			e.comp.PredictBatch(blk, preds[:n])
			e.comp.SearchBlock(blk, preds[:n], bkt[:n], probes[:n])
		}
		for _, b := range bkt[:n] {
			e.rec.touch(b)
		}
		tick := metLookups.Add(uint64(n)) - uint64(n) // key i's tick is tick+i+1
		var matched, spilled uint64
		for i, k := range blk {
			nq := tick + uint64(i) + 1
			var fr *telemetry.FlightRecord
			if telemetry.Flight.HitN(nq) {
				var rec telemetry.FlightRecord // stack-allocated; Commit copies it out
				fr = &rec
				fr.Begin(k.Hi, k.Lo)
				fr.Batch = true
				bkt[i], probes[i] = e.search(inf, k, preds[i])
				fr.Stamp(plane.StageSearch)
			}
			_, cmp, action, ok, spill, _ := e.fetch(k, bkt[i], mem, inf)
			if e.dir != nil {
				fr.Stamp(plane.StageFetch)
			}
			if nq&(sampleEvery-1) == 0 {
				e.observe(bkt[i], probes[i], preds[i].Err, cmp)
			}
			if fr != nil {
				e.commit(fr, probes[i], preds[i].Err, action, ok)
			}
			res[i] = BatchResult{Action: action, Matched: ok}
			matched += b2u(ok)
			spilled += b2u(spill)
		}
		e.count(uint64(n), matched, spilled)
	}
}

// ModifyAction changes the action of an installed rule without retraining
// (§6.5: action modification touches only the RQ-array metadata).
func (e *Engine) ModifyAction(prefix keys.Value, length int, action uint64) error {
	idx := e.findRule(prefix, length)
	if idx == lpm.NoMatch || !e.isLive(idx) {
		return fmt.Errorf("core: rule %s/%d not installed", prefix, length)
	}
	e.rule(idx).Action = action
	e.ra.SetAction(int32(idx), action)
	e.owned(idx, func(w wbucket, j int) { w.setOwner(j, action, true) })
	// Every rewrite above is complete (atomic stores) before the bump, so any
	// cached-lookup probe that observes the new epoch recomputes from the
	// post-modify state (lcache's fill/invalidate ordering argument).
	e.epoch.Bump()
	return nil
}

// Delete removes a rule without retraining (§6.5): the affected RQ-array
// entries are re-owned by the next-longest live rule. Range boundaries stay
// as they were — they remain a valid (finer-than-necessary) partition.
//
// A range the doomed rule owns can only fall to a shorter live rule covering
// it, and a shorter prefix that covers one key of the rule covers all of it:
// every range falls to the same rule, the longest live proper prefix of the
// doomed one — at most one rule lookup per shorter length the rule-set
// contains, then the re-own of the doomed rule's ranges. Nothing is built and
// no deletion is slower than the next.
//
// Publication order (DESIGN.md §11): per range the owner table and the
// record, tombstone last — so a concurrent lookup under the doomed rule
// answers its action or the covering rule's, never a stray miss.
func (e *Engine) Delete(prefix keys.Value, length int) error {
	idx := e.findRule(prefix, length)
	if idx == lpm.NoMatch || !e.isLive(idx) {
		return fmt.Errorf("core: rule %s/%d not installed", prefix, length)
	}
	cover := e.coverOf(prefix, length)
	e.owned(idx, func(w wbucket, j int) { w.reown(j, cover) })
	e.setLive(idx, false)
	// Re-own + tombstone are fully visible before the bump: a cached action
	// for a key the deleted rule covered dies on the next probe.
	e.epoch.Bump()
	return nil
}

// InsertBatch commits a batch of new rules by rebuilding the engine — the
// path of an insertion Insert could not absorb (§6.5: full retraining).
// Deleted rules are dropped, absorbed ones carried over, and with them every
// spill record folds back into a dense one; the receiver is left untouched,
// so callers can swap engines atomically.
func (e *Engine) InsertBatch(newRules []lpm.Rule) (*Engine, error) {
	rs, err := lpm.NewRuleSet(e.width, append(e.liveRules(len(newRules)), newRules...))
	if err != nil {
		return nil, err
	}
	next, err := Build(rs, e.cfg)
	if err != nil {
		return nil, err
	}
	// The rebuilt engine continues the receiver's cache-epoch lineage (no
	// bump here — the engine is not live yet; Updatable.Commit bumps after
	// the atomic swap makes it visible) and keeps its shard tag; drift meter
	// and hotness sketch start fresh from Build, matching the new model.
	next.epoch = e.epoch
	next.shardID = e.shardID
	return next, nil
}

// SRAMUsage itemizes the engine's on-chip memory demand in bytes.
type SRAMUsage struct {
	Model   int // RQRMI parameter buffers
	RQArray int // range array (SRAM-only) or bucket directory
	Total   int
}

// SRAMUsage reports the engine's static SRAM footprint. Any remaining SRAM
// budget is available as a DRAM cache (§6.5, §8).
func (e *Engine) SRAMUsage() SRAMUsage {
	u := SRAMUsage{Model: e.model.SizeBytes()}
	if e.dir != nil {
		u.RQArray = e.dir.SizeBytes()
	} else {
		u.RQArray = e.ra.SizeBytes()
	}
	u.Total = u.Model + u.RQArray
	return u
}

// DRAMFootprint returns the off-chip bytes of the bucket array (zero for
// SRAM-only engines).
func (e *Engine) DRAMFootprint() int {
	if e.dir == nil {
		return 0
	}
	return e.ra.SizeBytes()
}

// WorstCaseDRAMAccesses returns the deterministic per-query DRAM access
// bound: one bucket fetch for bucketized engines, zero otherwise (§10.2).
func (e *Engine) WorstCaseDRAMAccesses() int {
	if e.dir == nil {
		return 0
	}
	return 1
}

// Verify re-derives the model's error bounds analytically and checks the
// engine end to end on every range boundary, including the compiled plane's
// bit-identity with the reference arithmetic. It is expensive; intended for
// tests and offline validation.
func (e *Engine) Verify() error {
	var ix rqrmi.Index = e.ra
	if e.dir != nil {
		ix = e.dir
	}
	if ok, witness := e.model.Verify(ix); !ok {
		return fmt.Errorf("core: model error bound violated at key %v", witness)
	}
	if err := e.verifyCompiled(ix); err != nil {
		return err
	}
	if err := e.verifyQuantized(ix); err != nil {
		return err
	}
	liveSet, err := lpm.NewRuleSet(e.width, e.liveRules(0))
	if err != nil {
		return err
	}
	oracle := lpm.NewTrieMatcher(liveSet)
	// Every range as it stands: a spilled bucket's own bounds, not the ones
	// the range array was built with.
	for b := 0; b*e.rec.k < e.rec.nr; b++ {
		w := e.bucketW(b)
		for j := 0; j < w.n; j++ {
			if err := e.verifyKey(oracle, w.low(j)); err != nil {
				return err
			}
		}
	}
	return nil
}

// verifyKey holds every inference arm's answer for k against the oracle's.
func (e *Engine) verifyKey(oracle *lpm.TrieMatcher, k keys.Value) error {
	got, gotOK := e.Lookup(k)
	want, wantOK := oracle.Lookup(k)
	if gotOK != wantOK || (gotOK && got != want) {
		return fmt.Errorf("core: mismatch at %v: engine (%d,%v) oracle (%d,%v)",
			k, got, gotOK, want, wantOK)
	}
	// The compiled and reference paths must resolve identically end to
	// end (search, bucket scan, action) — not just against the oracle.
	refGot, refOK := e.LookupReference(k)
	if refOK != gotOK || refGot != got {
		return fmt.Errorf("core: compiled/reference divergence at %v: compiled (%d,%v) reference (%d,%v)",
			k, got, gotOK, refGot, refOK)
	}
	// The quantized arm carries different intermediate predictions but
	// must land on the same end-to-end answer (bound-inclusion makes the
	// bounded search exact; verifyQuantized checks the inclusion itself).
	qTr := e.lookupQuantized(k, cachesim.Null{}, nil)
	if qTr.Matched != gotOK || (gotOK && qTr.Action != got) {
		return fmt.Errorf("core: compiled/quantized divergence at %v: compiled (%d,%v) quantized (%d,%v)",
			k, got, gotOK, qTr.Action, qTr.Matched)
	}
	return nil
}

// sweepBoundaries hands check every boundary of the learned index and the keys
// adjacent to it, a block of at most rqrmi.Block keys at a time.
func (e *Engine) sweepBoundaries(ix rqrmi.Index, check func(ks []keys.Value) error) error {
	dom := keys.NewDomain(e.width)
	buf := make([]keys.Value, 0, rqrmi.Block)
	for i := 0; i < ix.Len(); i++ {
		b := ix.Low(i)
		buf = append(buf, b)
		if !b.IsZero() {
			buf = append(buf, b.Dec())
		}
		if b.Less(dom.Max()) {
			buf = append(buf, b.Inc())
		}
		if len(buf)+3 > cap(buf) || i == ix.Len()-1 {
			if err := check(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// verifyCompiled sweeps every boundary of the learned index — and the keys
// adjacent to it — asserting the compiled plane reproduces the reference
// float32 LUT arithmetic bit for bit: equal predictions (index, error bound,
// submodel), equal search results, and equal probe counts, for Predict and
// Search and for their block forms, PredictBatch and SearchBlock. This is the
// full-range-boundary half of the bit-identity contract; FuzzCompiledVsModel
// covers arbitrary keys.
func (e *Engine) verifyCompiled(ix rqrmi.Index) error {
	var (
		preds       [rqrmi.Block]rqrmi.Prediction
		idx, probes [rqrmi.Block]int
	)
	return e.sweepBoundaries(ix, func(ks []keys.Value) error {
		e.comp.PredictBatch(ks, preds[:])
		e.comp.SearchBlock(ks, preds[:], idx[:], probes[:])
		for i, k := range ks {
			pm := e.model.Predict(k)
			if pc := e.comp.Predict(k); pc != pm {
				return fmt.Errorf("core: compiled Predict(%v) = %+v, reference %+v", k, pc, pm)
			}
			if preds[i] != pm {
				return fmt.Errorf("core: compiled PredictBatch(%v) = %+v, reference %+v", k, preds[i], pm)
			}
			im, probesM := e.model.Search(ix, k, pm)
			if ic, probesC := e.comp.Search(k, pm); im != ic || probesM != probesC {
				return fmt.Errorf("core: compiled Search(%v) = (%d,%d), reference (%d,%d)",
					k, ic, probesC, im, probesM)
			}
			if idx[i] != im || probes[i] != probesM {
				return fmt.Errorf("core: compiled SearchBlock(%v) = (%d,%d), reference (%d,%d)",
					k, idx[i], probes[i], im, probesM)
			}
		}
		return nil
	})
}

// verifyQuantized sweeps the same boundary±1 key set as verifyCompiled, but
// the quantized contract is bound-inclusion, not bit-identity: the integer
// prediction may differ from the float one, yet its own stored error bound
// must cover the true index (so the bounded search is exact), the search must
// land on that index, and the block arms must match the single-key arms bit
// for bit.
func (e *Engine) verifyQuantized(ix rqrmi.Index) error {
	var (
		preds       [rqrmi.Block]rqrmi.Prediction
		idx, probes [rqrmi.Block]int
	)
	return e.sweepBoundaries(ix, func(ks []keys.Value) error {
		e.quant.PredictBatch(ks, preds[:])
		e.quant.SearchBlock(ks, preds[:], idx[:], probes[:])
		for i, k := range ks {
			pq := e.quant.Predict(k)
			if preds[i] != pq {
				return fmt.Errorf("core: quantized PredictBatch(%v) = %+v, single %+v", k, preds[i], pq)
			}
			truth := rqrmi.Find(ix, k)
			if d := pq.Index - truth; d > pq.Err || -d > pq.Err {
				return fmt.Errorf("core: quantized bound violated at %v: index %d err %d truth %d",
					k, pq.Index, pq.Err, truth)
			}
			iq, probesQ := e.quant.Search(k, pq)
			if iq != truth {
				return fmt.Errorf("core: quantized Search(%v) = %d, truth %d", k, iq, truth)
			}
			if idx[i] != iq || probes[i] != probesQ {
				return fmt.Errorf("core: quantized SearchBlock(%v) = (%d,%d), single (%d,%d)",
					k, idx[i], probes[i], iq, probesQ)
			}
		}
		return nil
	})
}
