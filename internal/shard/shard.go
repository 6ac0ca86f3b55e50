// Package shard partitions a NeuroLPM rule-set by the top bits of the key
// into independent sub-engines, mirroring the paper's hardware parallelism:
// §6's design replicates inference pipelines and spreads the RQ Array over
// banked SRAM (Fig 6a) so many queries resolve concurrently. In software the
// same move buys two things:
//
//   - throughput: LookupBatch groups a batch of keys by shard and fans the
//     groups out over a worker pool, so per-call overhead is amortized and
//     each worker walks one shard-local RQ Array that is a fraction of the
//     global one (better cache residency, smaller error bounds, fewer
//     secondary-search probes);
//   - incremental updates: a rule insertion only retrains the shard it
//     lands in, never the full model — the §6.5 rebuild cost divided by the
//     shard count.
//
// ShardedUpdatable is the one sharded type and the one serving topology: a
// single shard (no routing bits, no pool, the global model) is its degenerate
// case, and a caller that never inserts simply never starts the committer.
//
// Correctness is preserved by replication: a rule shorter than the shard
// prefix is installed in every shard it covers (exactly like a route
// replicated across SRAM banks), so each shard answers queries for its key
// slice identically to the global engine. The parameterized differential
// fuzz target planetest.FuzzStackVsOracle and the full-keyspace metamorphic
// tests enforce the CLAUDE.md invariant — sharded results equal the trie
// oracle on every key, across every stack configuration (DESIGN.md §14).
package shard

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/telemetry"
)

// Result is one LookupBatch answer: the engine's own batch result, so a
// shard's engine writes its group's answers with no conversion.
type Result = core.BatchResult

// MaxShardBits bounds the partition so replication of short rules cannot
// explode: 2^10 sub-engines is far past any plausible core count.
const MaxShardBits = 10

// router holds the key→shard mapping and the batch fan-out machinery.
type router struct {
	width     int
	shardBits int
	pool      *pool
	loads     []padUint64 // per-shard lookups served (balance telemetry)
	cache     *cachePlane // result-cache plane; nil until EnableCache
}

// plan validates the shard count and returns the router plus the per-shard
// rule partition.
func plan(rs *lpm.RuleSet, nShards int) (router, [][]lpm.Rule, error) {
	if rs == nil {
		return router{}, nil, fmt.Errorf("shard: nil rule-set")
	}
	if nShards < 1 || nShards&(nShards-1) != 0 {
		return router{}, nil, fmt.Errorf("shard: shard count %d is not a power of two ≥ 1", nShards)
	}
	bits := 0
	for 1<<bits < nShards {
		bits++
	}
	if bits > MaxShardBits {
		return router{}, nil, fmt.Errorf("shard: %d shards exceeds the 2^%d limit", nShards, MaxShardBits)
	}
	if bits >= rs.Width {
		return router{}, nil, fmt.Errorf("shard: %d shards needs %d key bits, rule-set width is %d", nShards, bits, rs.Width)
	}
	r := router{
		width:     rs.Width,
		shardBits: bits,
		loads:     make([]padUint64, nShards),
	}
	if workers := min(nShards, runtime.GOMAXPROCS(0)); workers > 1 {
		r.pool = newPool(workers)
	}
	return r, partition(rs, bits), nil
}

// partition assigns every rule to the shards it covers. Rules at least
// shardBits long land in exactly one shard; shorter rules are replicated
// into each of the 2^(shardBits−len) shards under their prefix.
func partition(rs *lpm.RuleSet, shardBits int) [][]lpm.Rule {
	parts := make([][]lpm.Rule, 1<<shardBits)
	for _, r := range rs.Rules {
		lo, hi := shardSpan(rs.Width, shardBits, r)
		for s := lo; s <= hi; s++ {
			parts[s] = append(parts[s], r)
		}
	}
	return parts
}

// shardSpan returns the inclusive shard range rule r covers.
func shardSpan(width, shardBits int, r lpm.Rule) (lo, hi int) {
	top := int(r.Prefix.Shr(uint(width - shardBits)).Uint64())
	if r.Len >= shardBits {
		return top, top
	}
	span := 1 << (shardBits - r.Len)
	return top, top + span - 1
}

// shardModel shallows the per-shard model: a shard learns only 1/N of the
// key-space CDF, so the middle refinement stage of a ≥3-stage global config
// is redundant — keeping the final stage width preserves (and with 1/N of
// the ranges, improves) per-leaf resolution while inference drops one LUT
// evaluation per query. This is the §6 bank model's smaller per-bank
// pipeline, and it is where the software speedup comes from on one core.
// Error bounds are recomputed per shard by the normal build, so correctness
// is unaffected.
func shardModel(cfg core.Config, nShards int) core.Config {
	sw := cfg.Model.StageWidths
	if nShards < 4 || len(sw) < 3 {
		return cfg
	}
	cfg.Model.StageWidths = []int{1, sw[len(sw)-1]}
	return cfg
}

// buildEngines trains one engine per partition, in parallel up to
// GOMAXPROCS (training is the expensive step; shards are independent).
func buildEngines(width int, cfg core.Config, parts [][]lpm.Rule) ([]*core.Engine, error) {
	cfg = shardModel(cfg, len(parts))
	engines := make([]*core.Engine, len(parts))
	errs := make([]error, len(parts))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			srs, err := lpm.NewRuleSet(width, parts[i])
			if err != nil {
				errs[i] = err
				return
			}
			engines[i], errs[i] = core.Build(srs, cfg)
			if engines[i] != nil {
				engines[i].SetShardID(i)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return engines, nil
}

// Shards returns the shard count.
func (r *router) Shards() int { return 1 << r.shardBits }

// Width returns the key bit width.
func (r *router) Width() int { return r.width }

// ShardOf returns the shard index serving key k. A key wider than the domain
// goes to the last shard, where the engine sorts it above every bound.
func (r *router) ShardOf(k keys.Value) int {
	return int(min(k.Shr(uint(r.width-r.shardBits)).Uint64(), uint64(r.Shards()-1)))
}

// keyScratch holds one group's gather/scatter buffers; pooled so concurrent
// shard groups each get their own without per-batch allocation.
type keyScratch struct {
	ks  []keys.Value
	res []Result
}

var keyScratchPool = sync.Pool{New: func() any { return new(keyScratch) }}

// batchScratch holds the grouping buffers for one lookupBatch call; pooling
// them keeps the hot path allocation-free apart from the caller-visible
// result slice.
type batchScratch struct {
	counts, starts, fill, order, shardOf []int32
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// lookupBatch is the fan-out: bucket keys by shard (one pass to count, one
// to place — no per-group append growth), then answer each shard's group
// back-to-back so consecutive queries reuse that shard's model and RQ-Array
// cache lines. lookGroup answers one shard's whole group — res[i] ← answer
// for gk[i], the group's keys gathered contiguously — so implementations
// hoist the sub-engine out of the per-key loop and hand the slice straight to
// the engine's batch stack; worker is the executing pool worker's index (−1
// on the serial path), the handle to per-worker state like the result-cache
// plane. Groups run on the pool, or serially when the pool is absent (single
// shard or GOMAXPROCS=1). One shard is one group: the caller's keys and the
// result slice themselves, nothing gathered or scattered.
func (r *router) lookupBatch(ks []keys.Value, lookGroup func(shard, worker int, gk []keys.Value, res []Result)) []Result {
	out := make([]Result, len(ks))
	if len(ks) == 0 {
		return out
	}
	metBatches.Inc()
	metBatchKeys.Add(uint64(len(ks)))
	metBatchSize.ObserveInt(len(ks))
	n := r.Shards()
	if n == 1 {
		lookGroup(0, -1, ks, out)
		r.loads[0].n.Add(uint64(len(ks)))
		return out
	}
	sc := scratchPool.Get().(*batchScratch)
	counts := grow(sc.counts, n)
	clear(counts)
	shardOf := grow(sc.shardOf, len(ks))
	for i, k := range ks {
		s := int32(r.ShardOf(k))
		shardOf[i] = s
		counts[s]++
	}
	starts := grow(sc.starts, n+1)
	starts[0] = 0
	for s := 0; s < n; s++ {
		starts[s+1] = starts[s] + counts[s]
	}
	order := grow(sc.order, len(ks))
	fill := grow(sc.fill, n)
	copy(fill, starts[:n])
	for i := range ks {
		s := shardOf[i]
		order[fill[s]] = int32(i)
		fill[s]++
	}
	run := func(s, worker int) {
		group := order[starts[s]:starts[s+1]]
		g := keyScratchPool.Get().(*keyScratch)
		if cap(g.ks) < len(group) {
			g.ks = make([]keys.Value, len(group))
			g.res = make([]Result, len(group))
		}
		gk, res := g.ks[:len(group)], g.res[:len(group)]
		for i, idx := range group {
			gk[i] = ks[idx]
		}
		lookGroup(s, worker, gk, res)
		for i, idx := range group {
			out[idx] = res[i]
		}
		keyScratchPool.Put(g)
		r.loads[s].n.Add(uint64(len(group)))
	}
	if r.pool == nil {
		for s := 0; s < n; s++ {
			if counts[s] > 0 {
				run(s, -1)
			}
		}
	} else {
		var wg sync.WaitGroup
		for s := 0; s < n; s++ {
			if counts[s] == 0 {
				continue
			}
			s := s
			wg.Add(1)
			r.pool.submit(func(w int) { defer wg.Done(); run(s, w) })
		}
		wg.Wait()
	}
	*sc = batchScratch{counts: counts, starts: starts, fill: fill, order: order, shardOf: shardOf}
	scratchPool.Put(sc)
	return out
}

// close shuts the pool down (idempotent).
func (r *router) close() {
	if r.pool != nil {
		r.pool.close()
		r.pool = nil
	}
}

// registerGauges publishes the balance telemetry for the most recently
// built sharded engine (the registry's last-writer-wins gauge semantics are
// exactly the rebuilt-engine refresh case).
func (r *router) registerGauges(rangesOf func(i int) int) {
	telemetry.Default.Gauge("neurolpm_shards",
		"Shards in the current sharded engine",
		func() float64 { return float64(r.Shards()) })
	telemetry.Default.Gauge("neurolpm_shard_load_imbalance",
		"Max/mean per-shard lookup load (1 = perfectly balanced; 0 before any lookup)",
		func() float64 { return imbalance(r.loadCounts()) })
	telemetry.Default.Gauge("neurolpm_shard_range_imbalance",
		"Max/mean per-shard RQ-Array size (static partition balance)",
		func() float64 {
			sizes := make([]uint64, r.Shards())
			for i := range sizes {
				sizes[i] = uint64(rangesOf(i))
			}
			return imbalance(sizes)
		})
}

// registerObserverGauges publishes the per-shard observability-plane gauges
// (DESIGN.md §13): model drift, the compiled probe ceiling, bucket-hotness
// skew, tier residency and spilled buckets. engineAt reads the shard's *current* live engine, so an updatable
// shard's post-commit engine — with its fresh bound and sketch — is what a
// scrape sees, without any re-registration on commit.
func (r *router) registerObserverGauges(engineAt func(i int) *core.Engine) {
	drift := telemetry.Default.GaugeVec("neurolpm_model_drift",
		"Observed p99 secondary-search probes over the last minute divided by the compiled probe ceiling (→1 = bound headroom consumed; retrain signal)", "shard")
	bound := telemetry.Default.GaugeVec("neurolpm_model_probe_bound",
		"Compiled worst-case secondary-search probes for the shard's live model", "shard")
	skew := telemetry.Default.GaugeVec("neurolpm_bucket_hotness_skew",
		"Fraction of sampled bucket accesses landing in the hottest 10% of buckets (decaying window)", "shard")
	resident := telemetry.Default.GaugeVec("neurolpm_tier_resident_buckets",
		"Fast-tier-resident buckets in the shard's live engine (total buckets when untiered)", "shard")
	fastBytes := telemetry.Default.GaugeVec("neurolpm_tier_fast_bytes",
		"Fast-tier-resident bucket-array bytes in the shard's live engine", "shard")
	spilled := telemetry.Default.GaugeVec("neurolpm_spilled_buckets",
		"Buckets of the shard's live engine answering from a spill record (absorbed inserts since its last commit; 0 right after one)", "shard")
	for i := 0; i < r.Shards(); i++ {
		i := i
		lbl := strconv.Itoa(i)
		drift.Set(lbl, func() float64 { return engineAt(i).DriftMeter().Drift() })
		bound.Set(lbl, func() float64 { return float64(engineAt(i).DriftMeter().Bound()) })
		skew.Set(lbl, func() float64 { return engineAt(i).HotSketch().Skew() })
		spilled.Set(lbl, func() float64 { return float64(engineAt(i).SpilledBuckets()) })
		resident.Set(lbl, func() float64 {
			if t := engineAt(i).TierStore(); t != nil {
				return float64(t.Stats().FastResident)
			}
			if d := engineAt(i).Directory(); d != nil {
				return float64((d.Array().Len() + d.K - 1) / d.K)
			}
			return 0
		})
		fastBytes.Set(lbl, func() float64 {
			if t := engineAt(i).TierStore(); t != nil {
				return float64(t.Stats().FastBytes)
			}
			return float64(engineAt(i).DRAMFootprint())
		})
	}
}

// loadCounts snapshots the per-shard lookup tallies.
func (r *router) loadCounts() []uint64 {
	out := make([]uint64, len(r.loads))
	for i := range r.loads {
		out[i] = r.loads[i].n.Load()
	}
	return out
}

// imbalance is max/mean over the counts; 0 when all counts are zero.
func imbalance(counts []uint64) float64 {
	var sum, max uint64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(counts))
	return float64(max) / mean
}
