//go:build !race

package planetest

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation adds allocations that break strict alloc assertions.
const raceEnabled = false

// sweepWidth is the domain TestSweepEveryKey visits every key of: 2²⁰ keys,
// ≈ 0.3 s a sweep.
const sweepWidth = 20
