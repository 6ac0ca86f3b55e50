package core

import (
	"sync/atomic"
	"unsafe"

	"neurolpm/internal/keys"
	"neurolpm/internal/ranges"
)

// records is the engine's answer store (DESIGN.md §10): one block of words
// per bucket holding everything a query needs once the directory search has
// named the bucket, so the scan and the answer touch that record and nothing
// else — no range-owner table, no tombstones, no per-rule actions. Record b:
//
//	word j>>6, bit j&63    matched: range j has a live owner
//	word hdr+(j−1)·limbs   lower bound of range j, j = 1..K−1 (Hi limb first)
//	word act+j             action of range j's owner
//
// with hdr = ⌈K/64⌉ rounded up to a multiple of limbs, act = hdr+(K−1)·limbs,
// stride = act+K. For K ≤ 64·limbs the matched bits sit exactly in bound slot
// 0 (the bound §7.1 keeps in SRAM; the scan never reads it) and a record is
// K·(limbs+1) words: two cache lines at K = 8, width ≤ 64, on a 64-byte
// aligned base. SRAM-only engines are the K = 1 case: one matched and one
// action word per range. Bounds are immutable; matched and action words are
// what Delete and ModifyAction rewrite, accessed atomically.
type records struct {
	w                              []uint64
	k, limbs, hdr, act, stride, nr int // nr = ranges covered
}

// alignedWords returns n zeroed words whose first byte is 64-byte aligned.
func alignedWords(n int) []uint64 {
	buf := make([]uint64, n+7)
	off := int(-uintptr(unsafe.Pointer(&buf[0]))&63) >> 3
	return buf[off : off+n : off+n]
}

// newRecords lays the range array out as records of k ranges in one linear
// pass, taking each range's answer from the owner table.
func newRecords(ra *ranges.Array, k int) *records {
	limbs := (ra.Width + 63) / 64 // words per bound: 1, or 2 above 64 bits
	hdr := ((k+63)/64 + limbs - 1) / limbs * limbs
	r := &records{k: k, limbs: limbs, hdr: hdr, act: hdr + (k-1)*limbs, nr: ra.Len()}
	r.stride = r.act + k
	r.w = alignedWords((r.nr + k - 1) / k * r.stride)
	for i := range ra.Entries {
		rec, j := r.w[i/k*r.stride:], i%k
		if j > 0 {
			low, o := ra.Entries[i].Low, hdr+(j-1)*limbs
			rec[o+limbs-1] = low.Lo
			if limbs == 2 {
				rec[o] = low.Hi
			}
		}
		if a, ok := ra.Action(i); ok {
			rec[j>>6] |= 1 << (uint(j) & 63)
			rec[r.act+j] = a
		}
	}
	return r
}

// scan resolves key within bucket b: the same in-order hardware scan as
// bucket.Directory.Search (identical index and comparison count) over the
// record's own bounds.
func (r *records) scan(b int, key keys.Value) (idx, comparisons int) {
	start := b * r.k
	n := min(r.k, r.nr-start)
	bounds := r.w[b*r.stride+r.hdr-r.limbs:] // bounds[j·limbs] is range j's bound
	idx = start
	if r.limbs == 1 {
		kk := key.Lo
		if key.Hi != 0 {
			kk = ^uint64(0) // out-of-domain key: above every ≤ 64-bit bound
		}
		for j := 1; j < n; j++ {
			comparisons++
			if kk < bounds[j] {
				break
			}
			idx = start + j
		}
		return idx, comparisons
	}
	for j := 1; j < n; j++ {
		comparisons++
		if key.Less(keys.Value{Hi: bounds[2*j], Lo: bounds[2*j+1]}) {
			break
		}
		idx = start + j
	}
	return idx, comparisons
}

// resolve answers range j of record b. Matched only ever clears on a
// published engine and writers store the action word whole, so matched-then-
// action returns an answer the trie oracle gave at some instant inside the
// read (DESIGN.md §11).
func (r *records) resolve(b, j int) (action uint64, ok bool) {
	rec := r.w[b*r.stride : (b+1)*r.stride]
	if atomic.LoadUint64(&rec[j>>6])>>(uint(j)&63)&1 == 0 {
		return 0, false
	}
	return atomic.LoadUint64(&rec[r.act+j]), true
}

// touch pulls record b's first line and its action line toward the cache
// without consuming them. Atomic loads: writers store these words, and the
// compiler must not drop the unused reads.
func (r *records) touch(b int) {
	rec := r.w[b*r.stride : (b+1)*r.stride]
	atomic.LoadUint64(&rec[0])
	atomic.LoadUint64(&rec[r.act])
}

// setAction publishes range i's new owner action.
func (r *records) setAction(i int, action uint64) {
	atomic.StoreUint64(&r.w[i/r.k*r.stride+r.act+i%r.k], action)
}

// clearMatched publishes that no live rule covers range i any more.
func (r *records) clearMatched(i int) {
	j := i % r.k
	atomic.AndUint64(&r.w[i/r.k*r.stride+j>>6], ^(uint64(1) << (uint(j) & 63)))
}
