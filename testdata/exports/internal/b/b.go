// Package b calls a's UsedElsewhere.
package b

import "fixture/internal/a"

func use() int { return a.UsedElsewhere() }
