// Package binsearch implements the full-binary-search LPM baseline the
// paper compares RQRMI against in §8: LPM rules are converted to the same
// non-overlapping range array, but queries locate the matching range with an
// unassisted O(log n) binary search instead of model inference plus an
// O(log e) bounded search. Every probe is a 4-byte (or wider) read of a
// range bound; when the array lives in DRAM these probes are the dependent,
// poorly-local accesses RQRMI avoids.
package binsearch

import (
	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/ranges"
)

// Engine performs LPM via binary search over a range array.
type Engine struct {
	arr *ranges.Array
}

// FromArray wraps an existing range array (so NeuroLPM and the baseline can
// be compared on the identical array).
func FromArray(arr *ranges.Array) *Engine { return &Engine{arr: arr} }

// Lookup implements lpm.Matcher.
func (e *Engine) Lookup(k keys.Value) (uint64, bool) {
	idx, _ := e.search(k, cachesim.Null{})
	return e.arr.Action(idx)
}

// LookupMem runs the query, reading every probed range bound through mem.
// It returns the action and the number of probes.
func (e *Engine) LookupMem(k keys.Value, mem cachesim.Mem) (action uint64, ok bool, probes int) {
	idx, probes := e.search(k, mem)
	action, ok = e.arr.Action(idx)
	return action, ok, probes
}

func (e *Engine) search(k keys.Value, mem cachesim.Mem) (idx, probes int) {
	eb := e.arr.BytesPerEntry()
	lo, hi := 0, e.arr.Len()-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		probes++
		mem.Read(uint64(mid)*uint64(eb), eb)
		if k.Less(e.arr.Low(mid)) {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	return lo, probes
}
