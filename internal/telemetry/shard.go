// Package telemetry is the always-on observability substrate of the
// NeuroLPM engine: lock-free sharded counters, log₂-bucketed histograms
// with quantile extraction, a sampled flight recorder, and a registry that
// renders everything as Prometheus text.
//
// The paper argues from distributions — per-query error bounds (§5.2.1),
// secondary-search probe counts (§6.2) and the one-DRAM-access-per-query
// bucketization invariant (§7) — so the hot
// paths are instrumented unconditionally. Every primitive here is designed
// to keep that instrumentation within noise of the uninstrumented engine:
// one or two uncontended atomic adds per event, no locks, no allocation.
package telemetry

import (
	"runtime"
	"unsafe"
)

// numShards is the stripe count of every counter and histogram. A power of
// two at least as large as GOMAXPROCS keeps concurrent writers on distinct
// cache lines with high probability.
var numShards = func() int {
	n := 1
	for n < runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	if n < 4 {
		n = 4
	}
	if n > 128 {
		n = 128
	}
	return n
}()

// cacheLine is the assumed coherence granule. 64 bytes covers x86-64 and
// most arm64 parts; the padding only wastes a few hundred bytes per metric.
const cacheLine = 64

// shardIndex picks the stripe for the calling goroutine. Goroutines have
// distinct stacks, so the address of a local variable is a cheap,
// allocation-free goroutine fingerprint (stack moves merely re-shard the
// goroutine, which is harmless — counters are sums over all shards).
func shardIndex() int {
	var b byte
	p := uintptr(unsafe.Pointer(&b))
	// Fibonacci mixing spreads stack base entropy into the high bits.
	p *= 0x9E3779B97F4A7C15
	return int(p>>48) & (numShards - 1)
}
