//go:build race

package load

// raceEnabled scales the smoke rates down: race instrumentation slows the
// served side several-fold, and checkReport wants every scheduled request
// answered before the drain times out.
const raceEnabled = true
