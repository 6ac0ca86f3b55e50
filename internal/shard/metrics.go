package shard

import "neurolpm/internal/telemetry"

// Batch and rebuild telemetry, registered alongside the core engine metrics
// (DESIGN.md §8 carries the metric → paper-section map).
var (
	metBatches = telemetry.Default.Counter("neurolpm_shard_batches_total",
		"LookupBatch calls served by a sharded engine")
	metBatchKeys = telemetry.Default.Counter("neurolpm_shard_batch_keys_total",
		"Keys resolved through LookupBatch")
	metBatchSize = telemetry.Default.Histogram("neurolpm_shard_batch_size",
		"Keys per LookupBatch call")
	metRebuildMs = telemetry.Default.Histogram("neurolpm_shard_rebuild_ms",
		"Per-shard background rebuild (retrain + swap) duration in milliseconds (§6.5)")
	metCommits = telemetry.Default.Counter("neurolpm_shard_commits_total",
		"Per-shard commits (background auto-commit and explicit)")
	metCommitErrs = telemetry.Default.Counter("neurolpm_shard_commit_errors_total",
		"Per-shard commits that failed (rule-set invalid or training error)")
	metCommitRetries = telemetry.Default.Counter("neurolpm_shard_commit_retries_total",
		"Commit attempts made while the shard already had an unresolved failure")
)
