//go:build race

package planetest

const raceEnabled = true

// sweepWidth is narrower under the race detector, which slows a lookup
// tenfold: 2¹⁶ keys.
const sweepWidth = 16
