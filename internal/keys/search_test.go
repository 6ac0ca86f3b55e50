package keys_test

import (
	"math/rand"
	"testing"

	// An external test package, dot-importing the one under test: the block
	// arm drives rqrmi's SearchBlock, and rqrmi imports keys.
	. "neurolpm/internal/keys"
	"neurolpm/internal/rqrmi"
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

func sortedValues(rng *rand.Rand, n int, wide bool) []Value {
	set := map[Value]bool{{}: true}
	for len(set) < n {
		v := Value{Lo: rng.Uint64()}
		if wide {
			v.Hi = rng.Uint64() >> 32 // mix of equal and distinct high limbs
		}
		set[v] = true
	}
	out := make([]Value, 0, n)
	for v := range set {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Less(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// flatIndex is a sorted bounds slice as the learned index rqrmi compiles.
type flatIndex []Value

func (f flatIndex) Len() int        { return len(f) }
func (f flatIndex) Low(i int) Value { return f[i] }

// TestSearchVariantsAgree pins the three specializations of the canonical
// bounded-search loop to each other and to a linear-scan oracle: identical
// indices and identical probe counts on every input. The block arm holds the
// lockstep form of the loop (rqrmi's SearchBlock, over the same bounds on the
// one- or two-limb plane) to the same pair, on windows of its own choosing.
func TestSearchVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, wide := range []bool{false, true} {
		lows := sortedValues(rng, 200, wide)
		lows64 := make([]uint64, len(lows))
		narrow := !wide
		for i, v := range lows {
			lows64[i] = v.Lo
		}
		for trial := 0; trial < 2000; trial++ {
			var k Value
			switch trial % 3 {
			case 0: // exact boundary
				k = lows[rng.Intn(len(lows))]
			case 1: // near boundary
				k = lows[rng.Intn(len(lows))].AddUint64(uint64(rng.Intn(3)))
			default:
				k = Value{Lo: rng.Uint64()}
				if wide {
					k.Hi = rng.Uint64() >> 32
				}
			}
			lo := rng.Intn(len(lows))
			hi := lo + rng.Intn(len(lows)-lo)
			if k.Less(lows[lo]) {
				continue // precondition: low(lo) ≤ k
			}
			wantIdx := linearFloor(lows, k, lo, hi)
			gotIdx, gotProbes := BoundedSearch(k, lo, hi, func(i int) Value { return lows[i] })
			if gotIdx != wantIdx {
				t.Fatalf("BoundedSearch(%v, [%d,%d]) = %d, oracle %d", k, lo, hi, gotIdx, wantIdx)
			}
			fIdx, fProbes := SearchLows(lows, k, lo, hi)
			if fIdx != gotIdx || fProbes != gotProbes {
				t.Fatalf("SearchLows diverged: (%d,%d) vs (%d,%d)", fIdx, fProbes, gotIdx, gotProbes)
			}
			if narrow && k.Hi == 0 {
				uIdx, uProbes := SearchLows64(lows64, k.Lo, lo, hi)
				if uIdx != gotIdx || uProbes != gotProbes {
					t.Fatalf("SearchLows64 diverged: (%d,%d) vs (%d,%d)", uIdx, uProbes, gotIdx, gotProbes)
				}
			}
		}
		blockSearchAgrees(t, rng, lows, wide)
	}
}

// blockSearchAgrees drives SearchBlock with blocks of 1, 15 and 16 keys whose
// windows are handed to it as predictions: single-entry windows (lo == hi),
// windows clamped at 0 and at n−1, keys below every bound of their window
// (the loop's precondition broken: both forms must still walk alike), and,
// on the one-limb plane, keys with a high limb.
func blockSearchAgrees(t *testing.T, rng *rand.Rand, lows []Value, wide bool) {
	width := 64
	if wide {
		width = 128
	}
	m, _, err := rqrmi.Train(flatIndex(lows), width, rqrmi.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := rqrmi.Compile(m, flatIndex(lows))
	if err != nil {
		t.Fatal(err)
	}
	n := len(lows)
	var (
		ks          [rqrmi.Block]Value
		ps          [rqrmi.Block]rqrmi.Prediction
		idx, probes [rqrmi.Block]int
	)
	for trial := 0; trial < 3000; trial++ {
		size := []int{1, rqrmi.Block - 1, rqrmi.Block}[trial%3]
		for i := 0; i < size; i++ {
			p := rqrmi.Prediction{Index: rng.Intn(n), Err: rng.Intn(40)}
			switch rng.Intn(6) {
			case 0:
				p.Err = 0
			case 1:
				p.Index, p.Err = rng.Intn(5), 5+rng.Intn(n) // clamped at 0, maybe at both ends
			case 2:
				p.Index, p.Err = n-1-rng.Intn(5), 5+rng.Intn(40) // clamped at n−1
			}
			lo, hi := max(p.Index-p.Err, 0), min(p.Index+p.Err, n-1)
			k := lows[lo+rng.Intn(hi-lo+1)].AddUint64(uint64(rng.Intn(3)))
			switch rng.Intn(8) {
			case 0:
				k = lows[rng.Intn(lo+1)] // at or below the window's first bound
				if lo > 0 && rng.Intn(2) == 0 {
					k = lows[lo].Dec()
				}
			case 1:
				k = Value{Hi: 1 + rng.Uint64()>>32, Lo: rng.Uint64()} // a high limb, also on the one-limb plane
			}
			ks[i], ps[i] = k, p
		}
		c.SearchBlock(ks[:size], ps[:size], idx[:size], probes[:size])
		for i := 0; i < size; i++ {
			lo, hi := max(ps[i].Index-ps[i].Err, 0), min(ps[i].Index+ps[i].Err, n-1)
			wantIdx, wantProbes := SearchLows(lows, ks[i], lo, hi)
			if idx[i] != wantIdx || probes[i] != wantProbes {
				t.Fatalf("wide=%v block of %d, key %d (%v in [%d,%d]): SearchBlock (%d,%d), SearchLows (%d,%d)",
					wide, size, i, ks[i], lo, hi, idx[i], probes[i], wantIdx, wantProbes)
			}
			if sIdx, sProbes := c.Search(ks[i], ps[i]); sIdx != wantIdx || sProbes != wantProbes {
				t.Fatalf("wide=%v Search(%v in [%d,%d]) = (%d,%d), SearchLows (%d,%d)",
					wide, ks[i], lo, hi, sIdx, sProbes, wantIdx, wantProbes)
			}
		}
	}
}

// TestBoundedSearchProbeBound checks the probe count never exceeds
// ⌈log2(hi−lo+1)⌉, the bound the paper's secondary-search FSM is sized for.
func TestBoundedSearchProbeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lows := sortedValues(rng, 500, false)
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
