//go:build race

package main

// raceEnabled skips the start-up allocation guard: race instrumentation adds
// allocations of its own, so the byte budget only holds in plain builds.
const raceEnabled = true
