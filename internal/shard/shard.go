// Package shard partitions a NeuroLPM rule-set by the top bits of the key
// into independent sub-engines, mirroring the paper's hardware parallelism:
// §6's design replicates inference pipelines and spreads the RQ Array over
// banked SRAM (Fig 6a) so many queries resolve concurrently. In software the
// same move buys two things:
//
//   - throughput: LookupBatch groups a batch of keys by shard and answers
//     the groups back-to-back on the calling goroutine, so per-call overhead
//     is amortized and each group walks one shard-local RQ Array that is a
//     fraction of the global one (better cache residency, smaller error
//     bounds, fewer secondary-search probes). Parallelism is across callers —
//     every connection answers on its own goroutine (DESIGN.md §9, §17) —
//     never inside one batch;
//   - incremental updates: a rule insertion only retrains the shard it
//     lands in, never the full model — the §6.5 rebuild cost divided by the
//     shard count.
//
// ShardedUpdatable is the one sharded type and the one serving topology: a
// single shard (no routing bits, the global model) is its degenerate
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
	"sync/atomic"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lcache"
	"neurolpm/internal/lpm"
	"neurolpm/internal/telemetry"
)

// Result is one LookupBatch answer: the engine's own batch result, so a
// shard's engine writes its group's answers with no conversion.
type Result = core.BatchResult

// MaxShardBits bounds the partition so replication of short rules cannot
// explode: 2^10 sub-engines is far past any plausible core count.
const MaxShardBits = 10

// padUint64 is a cache-line-padded counter, one per shard, so concurrent
// callers tallying different shards never share a coherence granule.
type padUint64 struct {
	n atomic.Uint64
	_ [56]byte
}

// router holds the key→shard mapping and the batch fan-out machinery.
type router struct {
	width     int
	shardBits int
	loads     []padUint64  // per-shard lookups served (balance telemetry)
	cache     *lcache.Pool // result-cache plane; nil until EnableCache
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

// batchScratch holds one lookupBatch call's grouping buffers: the batch
// permuted into shard order (ks, with res its answers in the same order),
// where each key came from (order), and the per-shard group cursor. Pooling
// them keeps the hot path allocation-free when the caller supplies dst.
type batchScratch struct {
	cursor, order, shardOf []int32
	ks                     []keys.Value
	res                    []Result
}

var scratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// lookupBatch is the fan-out, all of it on the calling goroutine: bucket keys
// by shard (one pass to count, one to gather them into shard order — no
// per-group append growth), answer each shard's group back-to-back so
// consecutive queries reuse that shard's model and RQ-Array cache lines, then
// scatter the answers to their request positions in dst (reused when it has
// the capacity, like the engine's batch stack). lookGroup answers one shard's
// whole group — res[i] ← answer for gk[i], the group's keys contiguous — so
// implementations hoist the sub-engine out of the per-key loop and hand the
// slice straight to the engine's batch stack. One shard is one group: the
// caller's keys and dst themselves, nothing gathered or scattered.
func (r *router) lookupBatch(ks []keys.Value, dst []Result, lookGroup func(shard int, gk []keys.Value, res []Result)) []Result {
	dst = grow(dst, len(ks))
	if len(ks) == 0 {
		return dst
	}
	metBatches.Inc()
	metBatchKeys.Add(uint64(len(ks)))
	metBatchSize.ObserveInt(len(ks))
	n := r.Shards()
	if n == 1 {
		lookGroup(0, ks, dst)
		r.loads[0].n.Add(uint64(len(ks)))
		return dst
	}
	sc := scratchPool.Get().(*batchScratch)
	// cursor[s] counts shard s's keys, then points at its first slot in shard
	// order, and once the gather pass has placed every key rests one past its
	// last — which is also where shard s+1's group begins.
	cursor := grow(sc.cursor, n)
	clear(cursor)
	shardOf := grow(sc.shardOf, len(ks))
	for i, k := range ks {
		s := int32(r.ShardOf(k))
		shardOf[i] = s
		cursor[s]++
	}
	var at int32
	for s := range cursor {
		at, cursor[s] = at+cursor[s], at
	}
	order := grow(sc.order, len(ks))
	gk := grow(sc.ks, len(ks))
	for i, k := range ks {
		p := cursor[shardOf[i]]
		cursor[shardOf[i]]++
		order[p], gk[p] = int32(i), k
	}
	res := grow(sc.res, len(ks))
	lo := int32(0)
	for s, hi := range cursor {
		if hi > lo {
			lookGroup(s, gk[lo:hi], res[lo:hi])
			r.loads[s].n.Add(uint64(hi - lo))
		}
		lo = hi
	}
	for p, i := range order {
		dst[i] = res[p]
	}
	*sc = batchScratch{cursor: cursor, order: order, shardOf: shardOf, ks: gk, res: res}
	scratchPool.Put(sc)
	return dst
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
// skew and spilled buckets. engineAt reads the shard's *current* live engine,
// so an updatable shard's post-commit engine — with its fresh bound and
// sketch — is what a scrape sees, without any re-registration on commit.
func (r *router) registerObserverGauges(engineAt func(i int) *core.Engine) {
	drift := telemetry.Default.GaugeVec("neurolpm_model_drift",
		"Observed p99 secondary-search probes over the last minute divided by the compiled probe ceiling (→1 = bound headroom consumed; retrain signal)", "shard")
	bound := telemetry.Default.GaugeVec("neurolpm_model_probe_bound",
		"Compiled worst-case secondary-search probes for the shard's live model", "shard")
	skew := telemetry.Default.GaugeVec("neurolpm_bucket_hotness_skew",
		"Fraction of sampled bucket accesses landing in the hottest 10% of buckets (decaying window)", "shard")
	spilled := telemetry.Default.GaugeVec("neurolpm_spilled_buckets",
		"Buckets of the shard's live engine answering from a spill record (absorbed inserts since its last commit; 0 right after one)", "shard")
	for i := 0; i < r.Shards(); i++ {
		i := i
		lbl := strconv.Itoa(i)
		drift.Set(lbl, func() float64 { return engineAt(i).DriftMeter().Drift() })
		bound.Set(lbl, func() float64 { return float64(engineAt(i).DriftMeter().Bound()) })
		skew.Set(lbl, func() float64 { return engineAt(i).HotSketch().Skew() })
		spilled.Set(lbl, func() float64 { return float64(engineAt(i).SpilledBuckets()) })
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
