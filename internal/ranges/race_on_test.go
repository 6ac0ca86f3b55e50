//go:build race

package ranges

// raceEnabled gates the heap pins: race instrumentation adds its own
// allocations, so byte thresholds only hold in plain builds.
const raceEnabled = true
