//go:build !race

package ranges

const raceEnabled = false
