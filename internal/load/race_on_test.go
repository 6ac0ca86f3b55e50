//go:build race

package load

// raceEnabled scales the smoke rates down and drops checkReport's
// achieved/offered check: race instrumentation slows the served side
// several-fold, so under it the smokes assert completion, zero errors and zero
// oracle mismatches, not a share of wall-clock throughput.
const raceEnabled = true
