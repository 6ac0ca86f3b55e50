package experiments

import (
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/workload"
)

// ShardedCell is one row of the sharded-vs-single throughput comparison
// (paper §6: bank-parallel pipelines scale throughput by partitioning the
// rule-set across independent engines, Fig 6a).
type ShardedCell struct {
	Mode       string // "single" or "sharded"
	Shards     int    // 1 for the single engine
	BatchSize  int    // 1 for single-key lookups
	MLookupsPS float64
	Speedup    float64 // vs the single-engine single-key row
	Mismatches int     // disagreements with the trie oracle (must be 0)
}

// ShardedBatchSize is the LookupBatch fan-out unit: large enough to
// amortize the per-batch shard grouping, small enough to stay cache-hot.
const ShardedBatchSize = 256

// ShardedShardCounts are the partition sizes measured against the single
// engine.
var ShardedShardCounts = []int{4, 8}

// shardedMinMeasure bounds each throughput measurement: the trace is
// replayed until this much wall time has elapsed (at least one full pass),
// so short quick-scale traces still produce stable rates.
const shardedMinMeasure = 500 * time.Millisecond

// ShardedThroughput measures single-engine single-key lookups against
// sharded LookupBatch on the ripe workload, verifying every traced answer
// against the trie oracle. One build per shard count — the one sharded type,
// shard.ShardedUpdatable, with nothing inserted and no committer started; the
// single engine is the baseline row.
func ShardedThroughput(sc Scale) ([]ShardedCell, error) {
	rs, err := workload.Generate(workload.Profiles()["ripe"], sc.Rules["ripe"], sc.Seed)
	if err != nil {
		return nil, err
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.TraceLen, sc.Seed+2))
	if err != nil {
		return nil, err
	}
	oracle := lpm.NewTrieMatcher(rs)
	wantAction := make([]uint64, len(trace))
	wantMatch := make([]bool, len(trace))
	for i, k := range trace {
		wantAction[i], wantMatch[i] = oracle.Lookup(k)
	}

	eng, err := core.Build(rs, sc.engineConfig())
	if err != nil {
		return nil, err
	}
	single := ShardedCell{Mode: "single", Shards: 1, BatchSize: 1}
	for i, k := range trace {
		a, ok := eng.Lookup(k)
		if a != wantAction[i] || ok != wantMatch[i] {
			single.Mismatches++
		}
	}
	single.MLookupsPS = measureRate(trace, func(ks []keys.Value) {
		for _, k := range ks {
			eng.Lookup(k)
		}
	})
	single.Speedup = 1
	out := []ShardedCell{single}

	for _, n := range ShardedShardCounts {
		sh, err := shard.BuildUpdatable(rs, sc.engineConfig(), n, 0)
		if err != nil {
			return nil, err
		}
		cell := ShardedCell{Mode: "sharded", Shards: n, BatchSize: ShardedBatchSize}
		for lo := 0; lo < len(trace); lo += ShardedBatchSize {
			hi := min(lo+ShardedBatchSize, len(trace))
			for i, res := range sh.LookupBatch(trace[lo:hi]) {
				if res.Action != wantAction[lo+i] || res.Matched != wantMatch[lo+i] {
					cell.Mismatches++
				}
			}
		}
		cell.MLookupsPS = measureRate(trace, func(ks []keys.Value) {
			for lo := 0; lo < len(ks); lo += ShardedBatchSize {
				sh.LookupBatch(ks[lo:min(lo+ShardedBatchSize, len(ks))])
			}
		})
		cell.Speedup = cell.MLookupsPS / single.MLookupsPS
		out = append(out, cell)
		sh.Close()
	}
	return out, nil
}

// measureRate replays the trace through run until shardedMinMeasure has
// elapsed (whole passes only) and returns millions of lookups per second.
func measureRate(trace []keys.Value, run func([]keys.Value)) float64 {
	run(trace[:min(len(trace), 4096)]) // warm caches outside the timed region
	var (
		start   = time.Now()
		elapsed time.Duration
		keys    int
	)
	for elapsed < shardedMinMeasure {
		run(trace)
		keys += len(trace)
		elapsed = time.Since(start)
	}
	return float64(keys) / elapsed.Seconds() / 1e6
}

// ShardedThroughputTable renders the comparison.
func ShardedThroughputTable(cells []ShardedCell) *Table {
	t := &Table{
		Title:  "Sharded engine: batched lookup throughput vs single engine (ripe workload)",
		Header: []string{"mode", "shards", "batch", "Mlookups/s", "speedup", "oracle mismatches"},
		Notes: []string{
			"§6 bank model: each shard owns a key slice with its own RQRMI + range array",
			"mismatches must be 0 — every answer is checked against the trie oracle",
		},
	}
	for _, c := range cells {
		t.Rows = append(t.Rows, []string{
			c.Mode, fi(c.Shards), fi(c.BatchSize),
			f2(c.MLookupsPS), f2(c.Speedup), fi(c.Mismatches),
		})
	}
	return t
}
