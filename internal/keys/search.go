package keys

// This file holds the one bounded-search loop the whole engine runs on.
// The reference query path (rqrmi.Find, Model.Search, ranges.FindWithin)
// and the compiled query plane both resolve "greatest i in [lo, hi] with
// low(i) ≤ k" with the upper-mid binary search below; keeping a single
// canonical loop means the probe sequence — and therefore the probe counts
// the paper's FSM/bank analysis is built on — cannot drift between paths.
//
// Three variants share the identical loop structure and differ only in how
// a lower bound is read:
//
//	BoundedSearch — through a func(int) Value (the rqrmi.Index paths);
//	SearchLows    — a flat []Value (compiled plane, width > 64);
//	SearchLows64  — a flat []uint64 (compiled plane, width ≤ 64, where the
//	                high limb of every bound is zero).
//
// The two flat variants take no data-dependent branch inside a probe: whether
// k is below the probed bound is the borrow of k − bound (bits.Sub64, chained
// over both limbs for SearchLows), and that borrow, spread to a mask, selects
// the next lo and hi. A probe's outcome is a coin flip, which a predictor
// loses half the time; the mask costs the same every time.
//
// TestSearchVariantsAgree asserts the three return identical (idx, probes)
// on random inputs, so the specializations cannot diverge silently.

import "math/bits"

// BoundedSearch returns the greatest i in [lo, hi] with low(i) ≤ k, assuming
// such an i exists (callers clamp [lo, hi] so low(lo) ≤ k), plus the number
// of probes the binary search performed. lo ≤ hi must hold.
func BoundedSearch(k Value, lo, hi int, low func(int) Value) (idx, probes int) {
	for lo < hi {
		mid := (lo + hi + 1) / 2
		probes++
		if k.Less(low(mid)) {
			hi = mid - 1
		} else {
			lo = mid
		}
	}
	return lo, probes
}

// SearchLows is BoundedSearch devirtualized over a flat bounds slice: no
// interface or function-pointer dispatch per probe.
func SearchLows(lows []Value, k Value, lo, hi int) (idx, probes int) {
	for lo < hi {
		mid := (lo + hi + 1) / 2
		probes++
		b := lows[mid]
		_, below := bits.Sub64(k.Lo, b.Lo, 0)
		_, below = bits.Sub64(k.Hi, b.Hi, below)
		m := -int(below) // all ones: k is below the bound
		hi ^= (hi ^ (mid - 1)) & m
		lo ^= (lo ^ mid) &^ m
	}
	return lo, probes
}

// SearchLows64 is SearchLows for bounds whose high limb is zero (width ≤ 64
// domains): one 8-byte load and one compare per probe.
func SearchLows64(lows []uint64, k uint64, lo, hi int) (idx, probes int) {
	for lo < hi {
		mid := (lo + hi + 1) / 2
		probes++
		_, below := bits.Sub64(k, lows[mid], 0)
		m := -int(below) // all ones: k is below the bound
		hi ^= (hi ^ (mid - 1)) & m
		lo ^= (lo ^ mid) &^ m
	}
	return lo, probes
}
