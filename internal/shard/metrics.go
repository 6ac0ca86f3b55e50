package shard

import "neurolpm/internal/telemetry"

// Batch and commit telemetry, registered alongside the core engine metrics;
// the rebuild's duration and failures are booked by core, on the one rebuild
// path (DESIGN.md §8 carries the metric → paper-section map).
var (
	metBatches = telemetry.Default.Counter("neurolpm_shard_batches_total",
		"LookupBatch calls served by a sharded engine")
	metBatchKeys = telemetry.Default.Counter("neurolpm_shard_batch_keys_total",
		"Keys resolved through LookupBatch")
	metBatchSize = telemetry.Default.Histogram("neurolpm_shard_batch_size",
		"Keys per LookupBatch call")
	metCommits = telemetry.Default.Counter("neurolpm_shard_commits_total",
		"Per-shard commits: explicit re-densify of one shard")
)
