// Always-on engine telemetry. A lookup books one uncontended atomic add, on
// the lane of a striped tally its outcome selects; every lookup count is a
// sum of lanes, derived at scrape. The distributions sample on the add's
// return, the flight recorder on a peek of the stripe's lanes before it.
// `make telemetry-overhead` measures what that costs a key: ≈ 6 ns
// bucketized, ≈ 8 SRAM-only on a 2-vCPU box, against 5 ns it does not meet.
package core

import "neurolpm/internal/telemetry"

// sampleEvery is the per-query histogram sampling stride: distributions
// (probes, error bound, bucket comparisons) are observed on every 64th
// lookup a tally lane books on a stripe. Counters are never sampled. Must be
// a power of two.
const sampleEvery = 64

// tally books every engine lookup, on any path, through Engine.book: on lane
// laneBucket if the engine is bucketized, plus one if the lookup matched.
var tally = telemetry.NewTally()

const laneBucket = 2

var (
	// metProbes is the §6.2 secondary-search probe distribution.
	metProbes = telemetry.Default.Histogram("neurolpm_sram_probes",
		"Secondary-search probes into the RQ Array per lookup (paper §6.2; sampled 1:64)")
	// metInferErr is the per-query §5.2.1 error-bound distribution.
	metInferErr = telemetry.Default.Histogram("neurolpm_inference_err",
		"RQRMI inference error bound e per lookup (paper §5.2.1; sampled 1:64)")
	metBucketCmp = telemetry.Default.Histogram("neurolpm_bucket_search_comparisons",
		"Comparisons per bucket search over the fetched bounds (sampled 1:64)")
	// metSpillFetches is the one cost of an absorbed insert on the read path:
	// a spilled bucket answers from its spill record, a second dependent line
	// after the fetch, until the next commit folds it back. Booked apart from
	// neurolpm_bucket_fetches_total, which counts §7's single access.
	metSpillFetches = telemetry.Default.Counter("neurolpm_bucket_spill_fetches_total",
		"Lookups that followed a spilled bucket's pointer to its heap record: dependent lines past paper §7's single access")
	// The one rebuild path, Compact's and a commit's: what it costs the
	// writer, and how often it fails. Each engine is a shard's.
	metRebuildMs = telemetry.Default.Histogram("neurolpm_shard_rebuild_ms",
		"Per-shard rebuild (retrain + swap) duration in milliseconds, on the writer: an overgrown engine's or a commit's (§6.5)")
	metRebuildErrs = telemetry.Default.Counter("neurolpm_shard_commit_errors_total",
		"Per-shard rebuilds that failed, an overgrown engine's or a commit's (injected fault or training error); nothing was swapped in")
)

// The lookup counts are sums of tally lanes, rendered from one load of the
// tally a scrape, so they agree within it.
func init() {
	reg := telemetry.Default.TallyCounter
	reg("neurolpm_lookups_total", "Engine lookups executed (all query paths)", tally, 0b1111)
	reg("neurolpm_lookups_matched_total", "Lookups that matched a live rule", tally, 0b1010)
	// §7: a bucketized lookup is exactly one bucket fetch (Engine.fetch).
	reg("neurolpm_bucket_fetches_total", "DRAM bucket fetches issued (paper §7: exactly one per bucketized lookup)", tally, 0b1100)
}
