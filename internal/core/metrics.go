// Always-on engine telemetry. The hot lookup path updates a handful of
// sharded lock-free counters/histograms (internal/telemetry); the cost is
// a few uncontended atomic adds per query, which benchmarks show is within
// noise of the uninstrumented engine (see instrument_test.go).
package core

import "neurolpm/internal/telemetry"

// sampleEvery is the per-query histogram sampling stride: distributions
// (probes, error bound, bucket comparisons) are observed on every 64th
// lookup of a shard. Counters are never sampled. Must be a power of two.
const sampleEvery = 64

var (
	// metLookups counts every engine lookup, on any path (Lookup,
	// LookupMem, LookupSpan) — the paths share one implementation, so the
	// counters and the trace output cannot drift.
	metLookups = telemetry.Default.Counter("neurolpm_lookups_total",
		"Engine lookups executed (all query paths)")
	metMatched = telemetry.Default.Counter("neurolpm_lookups_matched_total",
		"Lookups that matched a live rule")
	// metProbes is the §6.2 secondary-search probe distribution.
	metProbes = telemetry.Default.Histogram("neurolpm_sram_probes",
		"Secondary-search probes into the RQ Array per lookup (paper §6.2; sampled 1:64)")
	// metInferErr is the per-query §5.2.1 error-bound distribution.
	metInferErr = telemetry.Default.Histogram("neurolpm_inference_err",
		"RQRMI inference error bound e per lookup (paper §5.2.1; sampled 1:64)")
	metBucketized = telemetry.Default.Counter("neurolpm_bucketized_lookups_total",
		"Lookups served by a bucketized (DRAM) engine")
	metBucketCmp = telemetry.Default.Histogram("neurolpm_bucket_search_comparisons",
		"Comparisons per bucket search over the fetched bounds (sampled 1:64)")
	// metSpillFetches is the one cost of an absorbed insert on the read path:
	// a spilled bucket answers from its spill record, a second dependent line
	// after the fetch, until the next commit folds it back. Booked apart from
	// neurolpm_bucket_fetches_total so the §7 gauge below stays exact.
	metSpillFetches = telemetry.Default.Counter("neurolpm_bucket_spill_fetches_total",
		"Lookups that followed a spilled bucket's pointer to its heap record: dependent lines past paper §7's single access")
	// The two paths of an insertion (DESIGN.md §11): absorbed into the live
	// engine, or buffered in front of it until a commit — with the refusal
	// reason as a series of its own.
	metAbsorbed = telemetry.Default.Counter("neurolpm_insert_absorbed_total",
		"Insertions absorbed by the live engine in place (no retrain, no delta-buffer residency)")
	metBuffered = telemetry.Default.Counter("neurolpm_insert_buffered_total",
		"Insertions that took the delta buffer and wait for a commit")
	metBufferedWhy = map[NotAbsorbed]*telemetry.Counter{
		refusedEngineKind: telemetry.Default.Counter("neurolpm_insert_buffered_engine_kind_total",
			"Buffered insertions: the engine cannot absorb (SRAM-only, tiered, or K = 64)"),
		refusedBucketFull: telemetry.Default.Counter("neurolpm_insert_buffered_bucket_full_total",
			"Buffered insertions: an edge bucket would exceed 64 ranges (or fault site absorb)"),
	}
)

func init() {
	// The §7 invariant as a live metric: a bucketized engine performs
	// exactly one dependent DRAM bucket fetch per query, so this gauge must
	// read exactly 1.0 whenever bucketized lookups have been served. The
	// fetch counter is owned by internal/bucket (booked by CountFetches, the
	// single point every simulated fetch passes through); the get-or-create
	// registry joins the two packages without an import cycle.
	fetches := telemetry.Default.Counter("neurolpm_bucket_fetches_total",
		"DRAM bucket fetches issued (paper §7)")
	telemetry.Default.Gauge("neurolpm_bucket_fetches_per_query",
		"Bucket fetches per bucketized lookup; must be exactly 1 (paper §7 invariant)",
		func() float64 {
			// Bucketized first: fetches are booked before the lookups they
			// served (Engine.count), so this order reads ≥ 1 mid-flight and
			// exactly 1 at rest, never a transient < 1.
			b := metBucketized.Load()
			if b == 0 {
				return 0
			}
			return float64(fetches.Load()) / float64(b)
		})
}
