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
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/telemetry"
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
	// sites (retrain, swap, compact — see internal/fault). The query
	// path never fires it; production builds leave it nil and pay one
	// nil-check per rebuild or Compact. The hook rides Config so engine
	// rebuilds (Rebuild → Build) inherit it automatically.
	Fault fault.Hook
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
// beside one writer; the updates (Insert, Delete, ModifyAction, Compact,
// Rebuild) require external synchronization among themselves: the writer
// lock of the shard that holds the engine (shard.ShardedUpdatable).
type Engine struct {
	cfg   Config
	width int
	// rules is the rule-set Build was given, kept without a copy and never
	// written: each rule's action lives in ra (ranges.Array.RuleAction).
	rules *lpm.RuleSet
	// dead is the tombstone bitset (bit i: rules.Rules[i] was deleted). No
	// read path consults it, but an engine used without a writer lock may see
	// writers overlap (a Rebuild beside a Delete), so its words are atomic.
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

	// The compiled query plane (DESIGN.md §10): comp mirrors model + index
	// in flat devirtualized storage and serves every lookup; the model remains
	// the reference arithmetic that Verify holds it to (reference). comp is
	// immutable after build: updates re-own ranges, rewrite actions or split a
	// range inside its bucket, but never move a directory boundary.
	comp *rqrmi.Compiled
}

// Build runs the offline preparation stage on the rule-set: the range array
// over rs, the learned index — the bucket directory, or the range array of an
// SRAM-only engine — the model trained over that index, and the compiled
// plane. The engine keeps rs as its rule table, with no copy, and never
// writes into it: the caller must not modify rs afterwards.
func Build(rs *lpm.RuleSet, cfg Config) (*Engine, error) {
	if cfg.Model.StageWidths == nil {
		cfg.Model = rqrmi.DefaultConfig()
	}
	if rs == nil {
		return nil, fmt.Errorf("core: nil rule-set")
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
		rules: rs,
		dead:  make([]atomic.Uint64, (rs.Len()+63)/64),
		lens:  rs.PrefixHistogram(),
		ra:    ra,
	}
	if cfg.BucketSize >= 2 {
		if e.dir, err = bucket.Build(ra, cfg.BucketSize); err != nil {
			return nil, err
		}
	}
	ix := e.index()
	if e.model, e.stats, err = rqrmi.Train(ix, rs.Width, cfg.Model); err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}
	return e.compilePlane(ix)
}

// compilePlane flattens the trained model and index into the compiled query
// plane and lays the range array out as the records every lookup answers
// from, and returns the finished engine.
func (e *Engine) compilePlane(ix rqrmi.Index) (*Engine, error) {
	c, err := rqrmi.Compile(e.model, ix)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	e.comp = c
	k := 1 // SRAM-only: every range is its own record
	if e.dir != nil {
		k = e.dir.K
	}
	e.rec = newRecords(e.ra, k)
	return e, nil
}

// Model exposes the trained RQRMI model (read-only use).
func (e *Engine) Model() *rqrmi.Model { return e.model }

// Compiled exposes the flat query plane serving the hot lookup path.
func (e *Engine) Compiled() *rqrmi.Compiled { return e.comp }

// Quantized compiles the int16 fixed-point re-encoding of the engine's model
// (DESIGN.md §10), an analysis artifact like Model.Predict: no lookup runs on
// it. Each call compiles it afresh, about 7 ms at 870 K rules.
func (e *Engine) Quantized() *rqrmi.Quantized {
	q, err := e.comp.Quantize(e.model, e.index())
	if err != nil {
		panic(err) // the engine's own model and index always fit its plane
	}
	return q
}

// index is the learned index the model was trained over: the bucket
// directory, or the range array of an SRAM-only engine.
func (e *Engine) index() rqrmi.Index {
	if e.dir != nil {
		return e.dir
	}
	return e.ra
}

// TrainStats returns statistics from the build's training phase.
func (e *Engine) TrainStats() *rqrmi.Stats { return e.stats }

// Ranges exposes the underlying range array (read-only use).
func (e *Engine) Ranges() *ranges.Array { return e.ra }

// Directory returns the bucket directory, or nil for SRAM-only engines.
func (e *Engine) Directory() *bucket.Directory { return e.dir }

// Lookup returns the action of the longest-prefix rule matching k.
// ok is false when no live rule matches.
//
// Equivalence contract: every Lookup* entry point — single-key or batch, Mem
// or not, directly or through the sharded router — must return exactly what
// the trie oracle returns for every key, including misses. The contract is
// enforced at every shard count by the parameterized harness in
// internal/planetest (FuzzStackVsOracle, TestLookupEntryPointsEquivalent).
//
// Lookup is the bare pipeline — inference, bounded search, the bucket
// record's answer, one lane add — with no Trace, no flight record and no
// memory model. The lane add's return is the key's lane tick, on which the
// distributions sample it 1:sampleEvery. The flight recorder must decide
// before the key is booked: after inference the key peeks its stripe's tick
// (plain loads of its lanes) and the recorder draws on that. A drawn record
// must time the whole pipeline, so that key takes trace, inference again
// included.
func (e *Engine) Lookup(k keys.Value) (action uint64, ok bool) {
	p := e.comp.Predict(k)
	st := tally.Stripe()
	if telemetry.Flight.Draws(st, st.Tick()) {
		tr := e.sampled(k, cachesim.Null{}, st)
		return tr.Action, tr.Matched
	}
	b := e.comp.Locate(k, p)
	_, cmp, action, ok, spilled := e.rec.answer(b, k)
	if spilled {
		metSpillFetches.Inc()
	}
	if e.book(st, 1, ok)&(sampleEvery-1) == 0 {
		e.observe(p, b, cmp)
	}
	return action, ok
}

// Trace describes one query's path through the engine, in the units the
// paper's evaluation reports.
type Trace struct {
	Prediction rqrmi.Prediction
	SRAMProbes int  // secondary-search probes into the RQ Array (SRAM)
	BucketRead bool // whether a DRAM bucket fetch was needed
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
	st := tally.Stripe()
	if telemetry.Flight.Draws(st, st.Tick()) {
		return e.sampled(k, mem, st)
	}
	return e.trace(k, mem, nil, st)
}

// LookupRecord answers k with its trace and a flight record of it, timed per
// stage (inference → secondary search → bucket fetch) whatever the recorder's
// stride: it is the /trace endpoint's implementation. The record enters the
// recorder's ring and slow log only when the recorder drew the key, as any
// lookup's would, so an operator's trace neither adds to the 1-in-N sample nor
// displaces a slow query.
func (e *Engine) LookupRecord(k keys.Value) (Trace, telemetry.FlightRecord) {
	var fr telemetry.FlightRecord
	st := tally.Stripe()
	drawn := telemetry.Flight.Draws(st, st.Tick())
	tr := e.trace(k, cachesim.Null{}, &fr, st)
	if drawn {
		telemetry.Flight.Commit(&fr)
	} else {
		fr.End()
	}
	return tr, fr
}

// sampled traces a key the flight recorder drew and commits its record.
func (e *Engine) sampled(k keys.Value, mem cachesim.Mem, st *telemetry.TallyStripe) Trace {
	var fr telemetry.FlightRecord // stack-allocated; Commit copies it out
	tr := e.trace(k, mem, &fr, st)
	telemetry.Flight.Commit(&fr)
	return tr
}

// book is every lookup's booking, one key or a block's keys of one outcome:
// n lookups on st, one add on the lane the engine kind and matched select. It
// returns the lane tick of the last of the n. A key that followed a spill
// record books metSpillFetches apart, at the call site: kept out of book, the
// rare add leaves book small enough to inline.
func (e *Engine) book(st *telemetry.TallyStripe, n uint64, matched bool) uint64 {
	return st.Add(int(b2u(matched))+laneBucket*int(b2u(e.dir != nil)), n)
}

// trace is the instrumented single-key arm behind LookupMem, LookupRecord and
// Lookup's drawn keys: the same inference, search and record answer as
// Lookup's bare pipeline, with (on bucketized engines) exactly one DRAM
// bucket fetch through mem, booked on stripe st. A non-nil fr is begun,
// stamped at each stage boundary and filled with the answer; the caller ends
// or commits it. A nil fr leaves the key untimed.
func (e *Engine) trace(k keys.Value, mem cachesim.Mem, fr *telemetry.FlightRecord, st *telemetry.TallyStripe) Trace {
	var tr Trace
	if fr != nil {
		fr.Begin(k.Hi, k.Lo)
	}
	tr.Prediction = e.comp.Predict(k)
	fr.Stamp(telemetry.StageInference)
	var b int
	b, tr.SRAMProbes = e.comp.Search(k, tr.Prediction)
	fr.Stamp(telemetry.StageSearch)
	if e.dir != nil {
		tr.BucketRead = true
		tr.DRAMBytes = e.dir.BucketBytes()
		mem.Read(e.dir.DRAMAddr(b))
	}
	// Bucketized engines scan the bucket's record — the spill record, when
	// word 0 says the bucket has one — and answer from the same record; j is
	// the key's position in it (0 in the SRAM-only design, whose records hold
	// one range).
	var j, cmp int
	j, cmp, tr.Action, tr.Matched, tr.Spilled = e.rec.answer(b, k)
	tr.RangeIndex = b*e.rec.k + j
	if e.dir != nil {
		fr.Stamp(telemetry.StageFetch)
	}
	if fr != nil {
		e.fill(fr, tr.SRAMProbes, tr.Prediction.Err, tr.Action, tr.Matched)
	}
	if tr.Spilled {
		metSpillFetches.Inc()
	}
	if e.book(st, 1, tr.Matched)&(sampleEvery-1) == 0 {
		e.observe(tr.Prediction, b, cmp)
	}
	return tr
}

// b2u is b as a count of one.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// reference answers k in the model's own arithmetic, the paper's pipeline
// step by step: Model.Predict's LUT walk, Model.Search's bounded search over
// the Index interface, then the bucket scan — bucket.Directory.Search over
// the range array, or the spill record's own bounds for a spilled bucket —
// and the record's answer. It books nothing and serves no caller: Verify and
// core's tests hold the compiled pipeline to it.
func (e *Engine) reference(k keys.Value) (action uint64, ok bool) {
	b, _ := e.model.Search(e.index(), k, e.model.Predict(k))
	v := e.rec.open(b)
	j := 0
	switch {
	case v.spilled:
		j, _ = v.search(k)
	case e.dir != nil:
		j, _ = e.dir.Search(b, k)
		j -= b * e.dir.K
	}
	return v.resolve(j)
}

// observe feeds the per-query distributions, 1:sampleEvery on the key's lane
// tick: their atomic adds on every query would cost more than the lookup's
// one exact count. The key was predicted p and searched to b; its probe count
// is derived here, the one place a lookup reads it.
func (e *Engine) observe(p rqrmi.Prediction, b, cmp int) {
	metProbes.ObserveInt(e.comp.Probes(p, b))
	metInferErr.ObserveInt(p.Err)
	if e.dir != nil {
		metBucketCmp.ObserveInt(cmp)
	}
}

// fill writes a timed key's answer into its flight record.
func (e *Engine) fill(fr *telemetry.FlightRecord, probes, errBound int, action uint64, matched bool) {
	fr.Probes = int32(probes)
	fr.ErrBound = int32(errBound)
	fr.Action = action
	fr.Matched = matched
	fr.BucketRead = e.dir != nil
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
// oracle-equivalence contract as Lookup (see internal/planetest).
func (e *Engine) LookupBatch(ks []keys.Value, out []BatchResult) []BatchResult {
	if cap(out) < len(ks) {
		out = make([]BatchResult, len(ks))
	}
	out = out[:len(ks)]
	e.finishBatch(ks, out)
	return out
}

// finishBatch answers ks: out[i] answers ks[i].
//
// Each block of rqrmi.Block keys is staged the way the paper's engine is
// (§6.2) — blocked inference, the block's secondary searches in lockstep, a
// touch of every key's record, then every key's tail — so at each step the
// block's misses are outstanding together, and it is booked as two lane adds,
// matched and missed. A lane add that passes a sample tick observes the
// block's first key of its outcome; the flight recorder draws key i on tick
// t+i of one peek. Inference was pipelined across the block, so a drawn key's
// record times search onward: the key is searched again by itself, after the
// block's search, then its tail.
func (e *Engine) finishBatch(ks []keys.Value, out []BatchResult) {
	var (
		preds [rqrmi.Block]rqrmi.Prediction
		bkt   [rqrmi.Block]int
		cmps  [rqrmi.Block]int
	)
	st := tally.Stripe()
	for start := 0; start < len(ks); start += rqrmi.Block {
		n := min(len(ks)-start, rqrmi.Block)
		blk, res := ks[start:start+n], out[start:start+n]
		e.comp.PredictBatch(blk, preds[:n])
		e.comp.SearchBlock(blk, preds[:n], bkt[:n])
		for _, b := range bkt[:n] {
			e.rec.touch(b)
		}
		t := st.Tick()
		due := telemetry.Flight.Due(st, t+uint64(n)-1)
		var matched, spilled uint64
		for i, k := range blk {
			var fr *telemetry.FlightRecord
			if due && telemetry.Flight.Draws(st, t+uint64(i)) {
				var rec telemetry.FlightRecord // stack-allocated; Commit copies it out
				fr = &rec
				fr.Begin(k.Hi, k.Lo)
				fr.Batch = true
				bkt[i] = e.comp.Locate(k, preds[i])
				fr.Stamp(telemetry.StageSearch)
			}
			_, cmp, action, ok, spill := e.rec.answer(bkt[i], k)
			cmps[i] = cmp
			if e.dir != nil {
				fr.Stamp(telemetry.StageFetch)
			}
			if fr != nil {
				e.fill(fr, e.comp.Probes(preds[i], bkt[i]), preds[i].Err, action, ok)
				telemetry.Flight.Commit(fr)
			}
			res[i] = BatchResult{Action: action, Matched: ok}
			matched += b2u(ok)
			spilled += b2u(spill)
		}
		if spilled != 0 {
			metSpillFetches.Add(spilled)
		}
		// A block is shorter than the sampling stride: a lane add of c keys
		// passes at most one sample tick, and does when its tick is below c.
		for j, c := range [2]uint64{matched, uint64(n) - matched} {
			ok := j == 0
			if c == 0 || e.book(st, c, ok)&(sampleEvery-1) >= c {
				continue
			}
			i := 0
			for res[i].Matched != ok {
				i++
			}
			e.observe(preds[i], bkt[i], cmps[i])
		}
	}
}

// ModifyAction changes the action of an installed rule without retraining
// (§6.5: action modification touches only the RQ-array metadata).
func (e *Engine) ModifyAction(prefix keys.Value, length int, action uint64) error {
	idx := e.findRule(prefix, length)
	if idx == lpm.NoMatch || !e.isLive(idx) {
		return fmt.Errorf("core: rule %s/%d not installed", prefix, length)
	}
	e.ra.SetAction(int32(idx), action)
	id := e.rec.intern(action)
	e.owned(idx, func(w wbucket, j int) { w.setOwner(j, id) })
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
	return nil
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
	ix := e.index()
	if ok, witness := e.model.Verify(ix); !ok {
		return fmt.Errorf("core: model error bound violated at key %v", witness)
	}
	if err := e.verifyCompiled(ix); err != nil {
		return err
	}
	liveSet, err := lpm.OwnRuleSet(e.width, e.liveRules(0))
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

// verifyKey holds Lookup's answer for k against the oracle's, and against the
// reference pipeline's: the compiled and reference paths must resolve
// identically end to end (search, bucket scan, action), not just against the
// oracle.
func (e *Engine) verifyKey(oracle *lpm.TrieMatcher, k keys.Value) error {
	got, gotOK := e.Lookup(k)
	want, wantOK := oracle.Lookup(k)
	if gotOK != wantOK || (gotOK && got != want) {
		return fmt.Errorf("core: mismatch at %v: engine (%d,%v) oracle (%d,%v)",
			k, got, gotOK, want, wantOK)
	}
	if refGot, refOK := e.reference(k); refOK != gotOK || refGot != got {
		return fmt.Errorf("core: compiled/reference divergence at %v: compiled (%d,%v) reference (%d,%v)",
			k, got, gotOK, refGot, refOK)
	}
	return nil
}

// sweepBoundaries hands check every boundary of the learned index, the first
// and last key of every routing-table cell (rqrmi.RouteEdges), and the keys
// adjacent to each, a block of at most rqrmi.Block keys at a time.
func (e *Engine) sweepBoundaries(ix rqrmi.Index, check func(ks []keys.Value) error) error {
	dom := keys.NewDomain(e.width)
	points := rqrmi.RouteEdges(e.width)
	for i := 0; i < ix.Len(); i++ {
		points = append(points, ix.Low(i))
	}
	buf := make([]keys.Value, 0, rqrmi.Block)
	for i, b := range points {
		buf = append(buf, b)
		if !b.IsZero() {
			buf = append(buf, b.Dec())
		}
		if b.Less(dom.Max()) {
			buf = append(buf, b.Inc())
		}
		if len(buf)+3 > cap(buf) || i == len(points)-1 {
			if err := check(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	return nil
}

// verifyCompiled sweeps every boundary of the learned index and every edge of
// a routing-table cell — and the keys adjacent to them — asserting the
// compiled plane reproduces the reference float32 LUT arithmetic bit for bit:
// equal predictions (index, error bound, submodel; the table's routing against
// Model.Predict's stage loop), equal search results, and equal probe counts,
// for Predict and Search and for their block forms, PredictBatch and
// SearchBlock, whose counts are derived from its answers. This is the
// full-range-boundary half of the bit-identity contract; FuzzCompiledVsModel
// covers arbitrary keys.
func (e *Engine) verifyCompiled(ix rqrmi.Index) error {
	var (
		preds [rqrmi.Block]rqrmi.Prediction
		idx   [rqrmi.Block]int
	)
	return e.sweepBoundaries(ix, func(ks []keys.Value) error {
		e.comp.PredictBatch(ks, preds[:])
		e.comp.SearchBlock(ks, preds[:], idx[:])
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
			if probes := e.comp.Probes(pm, idx[i]); idx[i] != im || probes != probesM {
				return fmt.Errorf("core: compiled SearchBlock(%v) = (%d,%d), reference (%d,%d)",
					k, idx[i], probes, im, probesM)
			}
		}
		return nil
	})
}
