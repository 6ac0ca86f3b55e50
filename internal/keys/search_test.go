package keys

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// linearFloor is the oracle: greatest i in [lo, hi] with lows[i] ≤ k,
// scanned linearly.
func linearFloor(lows []Value, k Value, lo, hi int) int {
	idx := lo
	for i := lo + 1; i <= hi; i++ {
		if !k.Less(lows[i]) {
			idx = i
		}
	}
	return idx
}

// sortedValues returns n distinct sorted width-bit values, 0 first. Above 64
// bits the high limbs come from a few values, so neighbours often share them.
func sortedValues(rng *rand.Rand, n, width int) []Value {
	set := map[Value]bool{{}: true}
	for len(set) < n {
		v := Value{Lo: rng.Uint64()}
		if width > 64 {
			v.Hi = uint64(rng.Intn(4)) << (width - 66)
		}
		set[v.And(MaxValue(width))] = true
	}
	out := make([]Value, 0, n)
	for v := range set {
		out = append(out, v)
	}
	slices.SortFunc(out, Value.Cmp)
	return out
}

// limbWidths are the key widths of a bound of 1, 2, 3 and 4 limbs; a column
// stores three as four.
var limbWidths = []int{32, 64, 96, 128}

// probeKey draws a key for a search of [lo, hi] over lows: on or next to a
// bound of the window, below low(lo) (the loop's precondition broken: the
// kernels must still answer lo), or with bits above the domain.
func probeKey(rng *rand.Rand, lows []Value, width, lo, hi int) Value {
	switch rng.Intn(6) {
	case 0:
		return lows[rng.Intn(lo+1)].Sub(FromUint64(uint64(rng.Intn(2)))) // at or below low(lo), wrapping at 0
	case 1:
		return Value{Hi: 1 + rng.Uint64()>>1, Lo: rng.Uint64()} // a high limb, above every bound of the narrow columns
	case 2:
		return Value{Lo: rng.Uint64(), Hi: rng.Uint64()}.And(MaxValue(width))
	}
	return lows[lo+rng.Intn(max(hi-lo, 0)+1)].AddUint64(uint64(rng.Intn(3)))
}

// TestSearchVariantsAgree holds the column kernel to BoundedSearch, index for
// index, at 1, 2, 3 and 4 limbs a bound, and to a linear scan where the loop's
// precondition holds: single-entry windows, windows at 0 and at n−1, empty
// (inverted) ones, keys below the window's first bound and keys with a high
// limb. The block arm does the same for the lockstep form.
func TestSearchVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, width := range limbWidths {
		lows := sortedValues(rng, 200, width)
		col := NewColumn(width, len(lows), func(i int) Value { return lows[i] })
		if limbs := []int{1, 2, 4, 4}[width/32-1]; col.Len() != len(lows) || len(col.w) != limbs*len(lows) {
			t.Fatalf("width %d: column of %d bounds in %d words, want %d limbs a bound", width, col.Len(), len(col.w), limbs)
		}
		if uintptr(unsafe.Pointer(&col.w[0]))&63 != 0 {
			t.Fatalf("width %d: column is not 64-byte aligned", width)
		}
		for i, v := range lows {
			if col.Low(i) != v {
				t.Fatalf("width %d: Low(%d) = %v, want %v", width, i, col.Low(i), v)
			}
		}
		for trial := 0; trial < 4000; trial++ {
			lo, hi := window(rng, len(lows))
			k := probeKey(rng, lows, width, lo, hi)
			want, _ := BoundedSearch(k, lo, hi, func(i int) Value { return lows[i] })
			if lo <= hi && !k.Less(lows[lo]) {
				if f := linearFloor(lows, k, lo, hi); want != f {
					t.Fatalf("width %d: BoundedSearch(%v, [%d,%d]) = %d, oracle %d", width, k, lo, hi, want, f)
				}
			}
			if got := col.Search(k, lo, hi); got != want {
				t.Fatalf("width %d: Search(%v, [%d,%d]) = %d, BoundedSearch %d", width, k, lo, hi, got, want)
			}
		}
		blockSearchAgrees(t, rng, col, lows, width)
	}
}

// window draws a search window over n bounds: mostly inside, else a single
// entry, one clamped at 0 or at n−1, the whole column, or an empty one.
func window(rng *rand.Rand, n int) (lo, hi int) {
	lo = rng.Intn(n)
	switch rng.Intn(8) {
	case 0:
		return lo, lo
	case 1:
		return 0, rng.Intn(n)
	case 2:
		return lo, n - 1
	case 3:
		return 0, n - 1
	case 4:
		return lo, lo - 1 - rng.Intn(3)
	}
	return lo, min(lo+rng.Intn(58), n-1)
}

// blockSearchAgrees drives the lockstep kernel with blocks of 1, 15 and 16
// keys on windows of every kind window draws, each answer held to Search's.
func blockSearchAgrees(t *testing.T, rng *rand.Rand, col Column, lows []Value, width int) {
	var (
		ks     [16]Value
		lo, hi [16]int
		want   [16]int
	)
	for trial := 0; trial < 3000; trial++ {
		size := []int{1, 15, 16}[trial%3]
		for i := 0; i < size; i++ {
			lo[i], hi[i] = window(rng, len(lows))
			ks[i] = probeKey(rng, lows, width, lo[i], hi[i])
			want[i] = col.Search(ks[i], lo[i], hi[i])
		}
		in := lo
		col.SearchBlock(ks[:size], lo[:size], hi[:size])
		for i := 0; i < size; i++ {
			if lo[i] != want[i] {
				t.Fatalf("width %d block of %d, key %d (%v from %d): SearchBlock %d, Search %d",
					width, size, i, ks[i], in[i], lo[i], want[i])
			}
		}
	}
}

// TestDerivedProbesAreTheLoop holds Probes to BoundedSearch's own count on
// every window 0 ≤ lo ≤ hi < 70 of a strictly increasing column, for a key
// at every position in [lo−1, hi+1]: below the window (answer lo), on each of
// its bounds, and above it (answer hi).
func TestDerivedProbesAreTheLoop(t *testing.T) {
	const n = 70
	lows := make([]Value, n+1)
	for i := range lows {
		lows[i] = FromUint64(uint64(10 + 10*i))
	}
	low := func(i int) Value { return lows[i] }
	for lo := 0; lo < n; lo++ {
		for hi := lo; hi < n; hi++ {
			for at := lo - 1; at <= hi+1; at++ {
				k := FromUint64(5) // below every bound
				if at >= 0 {
					k = lows[at].AddUint64(uint64(at % 3))
				}
				idx, probes := BoundedSearch(k, lo, hi, low)
				if got := Probes(lo, hi, idx); got != probes {
					t.Fatalf("[%d,%d], key at %d: Probes = %d, the loop counted %d", lo, hi, at, got, probes)
				}
			}
		}
	}
}

// TestBoundedSearchProbeBound checks the probe count never exceeds
// ⌈log2(hi−lo+1)⌉, the bound the paper's secondary-search FSM is sized for.
func TestBoundedSearchProbeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lows := sortedValues(rng, 500, 64)
	for trial := 0; trial < 500; trial++ {
		lo := rng.Intn(len(lows))
		hi := lo + rng.Intn(len(lows)-lo)
		k := lows[rng.Intn(len(lows))]
		if k.Less(lows[lo]) {
			continue
		}
		_, probes := BoundedSearch(k, lo, hi, func(i int) Value { return lows[i] })
		maxProbes := 0
		for span := hi - lo; span > 0; span /= 2 {
			maxProbes++
		}
		if probes > maxProbes {
			t.Fatalf("probes %d exceeds log bound %d for span %d", probes, maxProbes, hi-lo)
		}
	}
}
