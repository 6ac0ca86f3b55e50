package shard

import "neurolpm/internal/telemetry"

// Commit telemetry, registered alongside the core engine metrics; the
// rebuild's duration and failures are booked by core, on the one rebuild path,
// and a served batch by the wire server that calls LookupBatchInto (DESIGN.md
// §8 carries the metric → paper-section map).
var metCommits = telemetry.Default.Counter("neurolpm_shard_commits_total",
	"Per-shard commits: explicit re-densify of one shard")
