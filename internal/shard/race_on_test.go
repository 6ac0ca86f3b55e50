//go:build race

package shard

// raceEnabled gates the allocation pin: race instrumentation adds its own
// allocations, so AllocsPerRun thresholds only hold in plain builds.
const raceEnabled = true
