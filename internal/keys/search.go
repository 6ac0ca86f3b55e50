package keys

// This file holds the bounded search the whole engine runs on: the greatest i
// in [lo, hi] with low(i) ≤ k, by the upper-mid binary search below. The
// reference query path (rqrmi's find, Model.Search) runs
// BoundedSearch through a func(int) Value and counts its probes — the counts
// the paper's FSM/bank analysis is built on. The compiled query plane runs the
// same search over a Column, the bounds in the key's own width, and counts
// nothing: Probes derives BoundedSearch's count from the answer wherever a
// count is read.
//
// Column's kernels take no branch on a loaded bound. Whether k is below the
// probed bound is the borrow of k − bound (bits.Sub64, chained over both
// halves of a bound wider than 64 bits), and that borrow, spread to a mask,
// selects the next lo and hi. A window of span s closes after bits.Len(s)
// probes, so the kernels run exactly that many rounds: the loop's exit is a
// count fixed by the window, where BoundedSearch's `lo < hi` waits on the last
// probe's load. A closed window (lo ≥ hi) probes its own lo, which moves
// nothing, so the extra rounds leave the answer as BoundedSearch's.
//
// TestSearchVariantsAgree holds the kernels to BoundedSearch at 1, 2 and 4
// limbs, and TestDerivedProbesAreTheLoop holds Probes to its count.

import (
	"math"
	"math/bits"
	"unsafe"
)

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

// Probes is BoundedSearch's probe count for a search of [lo, hi] that
// answered idx, replayed on the indices alone. Over strictly increasing
// bounds the loop's test k < low(mid) is idx < mid for every mid it probes —
// mid lies in (lo, hi], where low(mid) ≤ k exactly when mid ≤ idx, and a key
// below low(lo) answers lo, under every probed bound — so the replay takes the
// loop's steps and counts them while lo < hi. It runs the kernels' rounds
// with their mask, so it costs a few operations a round and no mispredicted
// branch.
func Probes(lo, hi, idx int) (probes int) {
	for r := bits.Len(uint(max(hi-lo, 0))); r > 0; r-- {
		mid := int(uint(lo+hi+1) >> 1)
		probes += int(uint(lo-hi) >> 63) // 1 while lo < hi
		lo, hi = step(lo, hi, mid, uint64(uint(idx-mid)>>63))
	}
	return probes
}

// Column is a sorted column of bounds in the key's own width: bound i is
// limbs 32-bit words from word i·limbs on a 64-byte-aligned base, limbs =
// ⌈width/32⌉ but for three, which takes four. At one limb the word is the
// bound. At two and four the words are read and written as one and two
// 64-bit words, high half first, through a 64-bit view of the same memory:
// one load a half, where two 32-bit loads and a join made the lockstep search
// 1.6 times slower at width 48. It is immutable once made.
type Column struct {
	w     []uint32
	limbs int // 1, 2 or 4
}

// NewColumn lays out the n bounds low(0) … low(n−1) of width-bit keys.
func NewColumn(width, n int, low func(int) Value) Column {
	c := Column{limbs: (width + 31) / 32}
	if c.limbs == 3 {
		c.limbs = 4
	}
	c.w = LineAligned(n * c.limbs)
	w, h := c.wide(), c.halves()
	for i := range n {
		switch v := low(i); c.limbs {
		case 1:
			c.w[i] = uint32(v.Lo)
		case 2:
			w[i] = v.Lo
		default:
			h[i] = [2]uint64{v.Hi, v.Lo}
		}
	}
	return c
}

// wide is the column as 64-bit words, for two limbs a bound; LineAligned's
// base makes every word 8-byte aligned.
func (c Column) wide() []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(c.w))), len(c.w)/2)
}

// halves is the column as pairs of 64-bit words, high then low, for four
// limbs a bound.
func (c Column) halves() [][2]uint64 {
	return unsafe.Slice((*[2]uint64)(unsafe.Pointer(unsafe.SliceData(c.w))), len(c.w)/4)
}

// LineAligned returns n zeroed words whose first byte is 64-byte aligned.
func LineAligned(n int) []uint32 {
	buf := make([]uint32, n+15)
	off := int(-uintptr(unsafe.Pointer(&buf[0]))&63) >> 2
	return buf[off : off+n : off+n]
}

// Len returns the number of bounds.
func (c Column) Len() int { return len(c.w) / c.limbs }

// Low returns bound i.
func (c Column) Low(i int) Value {
	switch c.limbs {
	case 1:
		return Value{Lo: uint64(c.w[i])}
	case 2:
		return Value{Lo: c.wide()[i]}
	}
	b := c.halves()[i]
	return Value{Hi: b[0], Lo: b[1]}
}

// narrow is k on a column of at most 64-bit bounds: a key with a high limb,
// above every such bound, saturates.
func narrow(k Value) uint64 {
	if k.Hi != 0 {
		return math.MaxUint64
	}
	return k.Lo
}

// step is one probe's move under below, the borrow of key − bound mid: hi
// falls to mid−1 when the key is below the bound, else lo rises to mid.
func step(lo, hi, mid int, below uint64) (int, int) {
	m := -int(below) // all ones: the key is below the bound
	return lo ^ (lo^mid)&^m, hi ^ (hi^(mid-1))&m
}

// Search returns the greatest i in [lo, hi] with Low(i) ≤ k — BoundedSearch's
// answer — or lo when no bound of the window is ≤ k or the window is empty
// (hi < lo). It runs bits.Len(hi−lo) rounds.
func (c Column) Search(k Value, lo, hi int) int {
	r := bits.Len(uint(max(hi-lo, 0)))
	switch c.limbs {
	case 1:
		w, kk := c.w, narrow(k)
		for ; r > 0; r-- {
			mid := int(uint(lo+hi+1) >> 1)
			_, below := bits.Sub64(kk, uint64(w[mid]), 0)
			lo, hi = step(lo, hi, mid, below)
		}
	case 2:
		w, kk := c.wide(), narrow(k)
		for ; r > 0; r-- {
			mid := int(uint(lo+hi+1) >> 1)
			_, below := bits.Sub64(kk, w[mid], 0)
			lo, hi = step(lo, hi, mid, below)
		}
	default:
		w := c.halves()
		for ; r > 0; r-- {
			mid := int(uint(lo+hi+1) >> 1)
			b := &w[mid]
			_, below := bits.Sub64(k.Lo, b[1], 0)
			_, below = bits.Sub64(k.Hi, b[0], below)
			lo, hi = step(lo, hi, mid, below)
		}
	}
	return lo
}

// Block is the most keys SearchBlock advances together.
const Block = 16

// SearchBlock is Search for each key of ks, at most Block of them, run the
// way the paper's pool of search FSMs runs (§6.2): key i's window is
// [lo[i], hi[i]], and every key advances one probe a round, for as many
// rounds as the widest window needs, so a round's bound loads are
// outstanding together instead of one key's chain after another's. On return
// lo[i] is key i's answer; hi is scratch.
func (c Column) SearchBlock(ks []Value, lo, hi []int) {
	var kk [Block]uint64 // the keys as the narrow columns compare them
	hi = hi[:len(ks)]
	widest := 0
	for i, k := range ks {
		kk[i] = narrow(k)
		hi[i] = max(hi[i], lo[i]) // an empty window is a closed one
		widest = max(widest, hi[i]-lo[i])
	}
	r := bits.Len(uint(widest))
	switch c.limbs {
	case 1:
		block1(c.w, &kk, lo, hi, r)
	case 2:
		block2(c.wide(), &kk, lo, hi, r)
	default:
		block4(c.halves(), ks, lo, hi, r)
	}
}

// block1, block2 and block4 are SearchBlock's r rounds over one, two and four
// limbs a bound. The loops are the same but for the bound's load: a function
// each keeps each loop's live values in registers.

func block1(w []uint32, kk *[Block]uint64, lo, hi []int, r int) {
	for ; r > 0; r-- {
		for i, h := range hi {
			l := lo[i]
			mid := int(uint(l+h+1) >> 1)
			_, below := bits.Sub64(kk[i], uint64(w[mid]), 0)
			lo[i], hi[i] = step(l, h, mid, below)
		}
	}
}

func block2(w []uint64, kk *[Block]uint64, lo, hi []int, r int) {
	for ; r > 0; r-- {
		for i, h := range hi {
			l := lo[i]
			mid := int(uint(l+h+1) >> 1)
			_, below := bits.Sub64(kk[i], w[mid], 0)
			lo[i], hi[i] = step(l, h, mid, below)
		}
	}
}

func block4(w [][2]uint64, ks []Value, lo, hi []int, r int) {
	for ; r > 0; r-- {
		for i, h := range hi {
			l := lo[i]
			mid := int(uint(l+h+1) >> 1)
			b, k := &w[mid], &ks[i]
			_, below := bits.Sub64(k.Lo, b[1], 0)
			_, below = bits.Sub64(k.Hi, b[0], below)
			lo[i], hi[i] = step(l, h, mid, below)
		}
	}
}
