// Package shard holds the updatable engine: ShardedUpdatable, the one
// updatable type and the one serving topology. It partitions a NeuroLPM
// rule-set by the top bits of the key into independent sub-engines, after the
// paper's hardware parallelism (§6 replicates inference pipelines and spreads
// the RQ Array over banked SRAM, Fig 6a); one shard — no routing bits, the
// global model — is the degenerate case, and the default. LookupBatch groups
// a batch of keys by shard and answers the groups back-to-back on the calling
// goroutine; parallelism is across callers — every connection answers on its
// own goroutine (DESIGN.md §9, §17) — never inside one batch. What more
// shards buy today is a smaller rebuild: an insertion that overgrows its
// engine retrains only the shard it lands in. They no longer buy a faster lookup
// (DESIGN.md §9 has the numbers).
//
// Correctness is preserved by replication: a rule shorter than the shard
// prefix is installed in every shard it covers (exactly like a route
// replicated across SRAM banks), so each shard answers queries for its key
// slice identically to the global engine. The parameterized differential
// fuzz target planetest.FuzzStackVsOracle and the full-keyspace metamorphic
// tests enforce the CLAUDE.md invariant — sharded results equal the trie
// oracle on every key, batch and single-key (DESIGN.md §14).
package shard

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/telemetry"
)

// Result is one LookupBatch answer: the engine's own batch result, so a
// shard's engine writes its group's answers with no conversion.
type Result = core.BatchResult

// maxShardBits bounds the partition so replication of short rules cannot
// explode: 2^10 sub-engines is far past any plausible core count.
const maxShardBits = 10

// plan validates the shard count and returns the routing bits it takes plus
// the per-shard rule partition.
func plan(rs *lpm.RuleSet, nShards int) (int, [][]lpm.Rule, error) {
	if rs == nil {
		return 0, nil, fmt.Errorf("shard: nil rule-set")
	}
	if nShards < 1 || nShards&(nShards-1) != 0 {
		return 0, nil, fmt.Errorf("shard: shard count %d is not a power of two ≥ 1", nShards)
	}
	bits := 0
	for 1<<bits < nShards {
		bits++
	}
	if bits > maxShardBits {
		return 0, nil, fmt.Errorf("shard: %d shards exceeds the 2^%d limit", nShards, maxShardBits)
	}
	if bits >= rs.Width {
		return 0, nil, fmt.Errorf("shard: %d shards needs %d key bits, rule-set width is %d", nShards, bits, rs.Width)
	}
	return bits, partition(rs, bits), nil
}

// partition assigns every rule to the shards it covers. Rules at least
// shardBits long land in exactly one shard; shorter rules are replicated
// into each of the 2^(shardBits−len) shards under their prefix. The rules are
// sorted by (prefix, len), so the rules whose top shardBits are s — shard s's
// own — are one run of rs.Rules, and a rule shorter than shardBits has the
// smallest prefix its run can hold, so it leads the run. A part that receives
// no replicated rule from an earlier run is its run, resliced with its
// capacity capped so an append can never reach the next run: at one shard,
// rs.Rules itself. Only a part that does receive them is allocated, at its
// exact size, the replicated rules first. Each part is a valid rule-set as it
// stands: it is a subsequence of a validated, sorted and duplicate-free
// rule-set, so it is all three, and buildEngines wraps it without copying or
// checking it again.
func partition(rs *lpm.RuleSet, shardBits int) [][]lpm.Rule {
	parts := make([][]lpm.Rule, 1<<shardBits)
	// carried are the earlier runs' short rules, in order, whose span reaches
	// shard s: at most one of each length below shardBits.
	carried := make([]lpm.Rule, 0, maxShardBits)
	lo := 0
	for s := range parts {
		hi := sort.Search(len(rs.Rules), func(i int) bool {
			return shardOf(rs.Width, shardBits, rs.Rules[i]) > s
		})
		run := rs.Rules[lo:hi:hi]
		carried = slices.DeleteFunc(carried, func(r lpm.Rule) bool {
			_, last := shardSpan(rs.Width, shardBits, r)
			return last < s
		})
		if len(carried) == 0 {
			parts[s] = run
		} else {
			parts[s] = append(append(make([]lpm.Rule, 0, len(carried)+len(run)), carried...), run...)
		}
		for _, r := range run {
			if r.Len >= shardBits {
				break
			}
			carried = append(carried, r)
		}
		lo = hi
	}
	return parts
}

// shardOf returns the shard holding rule r's prefix: its top shardBits.
func shardOf(width, shardBits int, r lpm.Rule) int {
	return int(r.Prefix.Shr(uint(width - shardBits)).Uint64())
}

// shardSpan returns the inclusive shard range rule r covers.
func shardSpan(width, shardBits int, r lpm.Rule) (lo, hi int) {
	top := shardOf(width, shardBits, r)
	if r.Len >= shardBits {
		return top, top
	}
	span := 1 << (shardBits - r.Len)
	return top, top + span - 1
}

// shardModel shallows the per-shard model: a shard learns only 1/N of the
// key-space CDF, so the middle refinement stage of a ≥3-stage global config
// is redundant — keeping the final stage width preserves (and with 1/N of
// the ranges, improves) per-leaf resolution. This is the §6 bank model's
// smaller per-bank pipeline. It was where E21's speedup came from, until the
// routing table made inference one table load at any model depth: the
// benchmark's traced lib_zipf run (2-vCPU box) reads shard.batch_ns 129 at
// four shards against core.batch_ns 112 for one engine (DESIGN.md §9). Error
// bounds are recomputed per shard by the normal build, so correctness is
// unaffected.
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
			engines[i], errs[i] = core.Build(&lpm.RuleSet{Width: width, Rules: parts[i]}, cfg)
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
func (u *ShardedUpdatable) Shards() int { return 1 << u.shardBits }

// Width returns the key bit width.
func (u *ShardedUpdatable) Width() int { return u.width }

// ShardOf returns the shard index serving key k. A key wider than the domain
// goes to the last shard, where the engine sorts it above every bound.
func (u *ShardedUpdatable) ShardOf(k keys.Value) int {
	return int(min(k.Shr(uint(u.width-u.shardBits)).Uint64(), uint64(u.Shards()-1)))
}

// batchScratch holds one LookupBatchInto call's grouping buffers: the batch
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

// LookupBatchInto resolves a batch positionally: dst[i] answers ks[i] (dst is
// reused when it has the capacity; nil allocates). It is the fan-out, all of
// it on the calling goroutine: bucket keys by shard (one pass to count, one
// to gather them into shard order — no per-group append growth), answer each
// shard's group back-to-back through its live engine's LookupBatch so
// consecutive queries reuse that shard's model and RQ-Array cache lines, then
// scatter the answers to their request positions in dst. One shard is one
// group: the caller's keys and dst themselves, nothing gathered or scattered.
// Each key's answer is individually consistent: it reflects either the pre-
// or post-swap engine of its shard, never a mix.
func (u *ShardedUpdatable) LookupBatchInto(ks []keys.Value, dst []Result) []Result {
	dst = grow(dst, len(ks))
	if len(ks) == 0 {
		return dst
	}
	n := u.Shards()
	if n == 1 {
		u.Engine(0).LookupBatch(ks, dst[:0])
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
		s := int32(u.ShardOf(k))
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
			u.Engine(s).LookupBatch(gk[lo:hi], res[lo:hi][:0])
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

// registerGauges publishes the per-shard gauges — the compiled probe ceiling
// and spilled buckets — for the most recently built engine (the registry's
// last-writer-wins gauge semantics are exactly the rebuilt-engine refresh
// case). Each reads its shard's *current* live engine, so a rebuilt engine's
// bound is what a scrape sees, without any re-registration on a swap.
func (u *ShardedUpdatable) registerGauges() {
	bound := telemetry.Default.GaugeVec("neurolpm_model_probe_bound",
		"Compiled worst-case secondary-search probes for the shard's live model", "shard")
	spilled := telemetry.Default.GaugeVec("neurolpm_spilled_buckets",
		"Buckets of the shard's live engine answering from a spill record (absorbed inserts since its last commit; 0 right after one)", "shard")
	for i := range u.shards {
		lbl := strconv.Itoa(i)
		bound.Set(lbl, func() float64 { return float64(rqrmi.ProbeBound(u.Engine(i).Compiled().MaxErr())) })
		spilled.Set(lbl, func() float64 { return float64(u.Engine(i).SpilledBuckets()) })
	}
}
