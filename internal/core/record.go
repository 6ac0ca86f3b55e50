package core

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"neurolpm/internal/keys"
	"neurolpm/internal/ranges"
)

// layout is the word layout of one record of capacity k (DESIGN.md §10):
//
//	word j>>6, bit j&63    matched: range j has a live owner
//	word hdr+(j−1)·limbs   lower bound of range j, j = 1..k−1 (Hi limb first)
//	word act+j             action of range j's owner
//
// with hdr = ⌈k/64⌉ rounded up to a multiple of limbs, act = hdr+(k−1)·limbs,
// stride = act+k. For k ≤ 64·limbs the matched bits sit exactly in bound slot
// 0 (the bound §7.1 keeps in SRAM; the scan never reads it) and a record is
// k·(limbs+1) words: two cache lines at k = 8, width ≤ 64, on a 64-byte
// aligned base.
type layout struct {
	k, limbs, hdr, act, stride int
}

func newLayout(k, limbs int) layout {
	hdr := ((k+63)/64 + limbs - 1) / limbs * limbs
	l := layout{k: k, limbs: limbs, hdr: hdr, act: hdr + (k-1)*limbs}
	l.stride = l.act + k
	return l
}

// records is the engine's answer store: one dense record per bucket holding
// everything a query needs once the directory search has named the bucket, so
// the scan and the answer touch that record and nothing else — no range-owner
// table, no tombstones, no per-rule actions. SRAM-only engines are the K = 1
// case: one matched and one action word per range.
//
// The dense records are what Build laid out and never gain a range. A bucket
// an absorbed insert adds a boundary to is rebuilt as a spillRecord — a heap
// object of exactly the ranges it holds — and published by one store of its
// pointer to the bucket's entry of the spill table; the first time, that
// store is followed by setting the spill bit of the dense record's word 0, so
// a reader that sees the bit finds the pointer. From then on the dense record
// is frozen, and so is a spill record once a later insert has superseded it:
// a reader that loaded the old pointer finishes on a record nobody writes any
// more, and the collector takes it when the last such reader has left.
// Bounds are immutable wherever they live; matched and action words of a
// bucket's current record are what Insert, Delete and ModifyAction rewrite,
// accessed atomically.
type records struct {
	layout
	w  []uint64
	nr int // ranges covered
	// spill[b] is bucket b's current spill record; the table is nil until the
	// first absorbed boundary.
	spill   atomic.Pointer[[]atomic.Pointer[spillRecord]]
	spilled atomic.Int64 // buckets answering from a spill record
}

const (
	// spillBit of a dense record's word 0 says the bucket answers from its
	// spill record. Range j's matched bit is bit j, so the bit is free up to
	// maxSpillK ranges a bucket; above, it is range 63's and the bucket cannot
	// spill.
	spillBit  = 63
	maxSpillK = spillBit
	// maxSpillRanges is what a spill record may grow to: the ranges one
	// matched word covers, and the longest scan a dense record (K = 64) costs.
	maxSpillRanges = 64
)

// spillRecord is a spilled bucket in one allocation: a record at the capacity
// of exactly its ranges, then one word a range for what the range array is to
// a dense record — the owner table (a rule index, or ranges.NoRule; atomic)
// that owned, Delete, ModifyAction and Insert walk and rewrite. Its bounds are
// the record's own, immutable; range 0's is the bucket's directory bound,
// which the compiled plane keeps.
type spillRecord struct {
	layout
	w []uint64 // stride record words, k owner words
}

func newSpillRecord(n, limbs int) *spillRecord {
	s := &spillRecord{layout: newLayout(n, limbs)}
	s.w = make([]uint64, s.stride+n)
	return s
}

// spillOf returns bucket b's spill record, for a caller that saw b's spill bit.
func (r *records) spillOf(b int) *spillRecord { return (*r.spill.Load())[b].Load() }

// alignedWords returns n zeroed words whose first byte is 64-byte aligned.
func alignedWords(n int) []uint64 {
	buf := make([]uint64, n+7)
	off := int(-uintptr(unsafe.Pointer(&buf[0]))&63) >> 3
	return buf[off : off+n : off+n]
}

// newRecords lays the range array out as records of k ranges in one linear
// pass, taking each range's answer from the owner table.
func newRecords(ra *ranges.Array, k int) *records {
	r := &records{layout: newLayout(k, (ra.Width+63)/64), nr: ra.Len()}
	r.w = alignedWords((r.nr + k - 1) / k * r.stride)
	for i := range r.nr {
		a, ok := ra.Action(i)
		r.put(r.w[i/k*r.stride:], i%k, ra.Low(i), a, ok)
	}
	return r
}

// bound returns the lower bound put wrote for range j ≥ 1.
func (l *layout) bound(rec []uint64, j int) (low keys.Value) {
	o := l.hdr + (j-1)*l.limbs
	low.Lo = rec[o+l.limbs-1]
	if l.limbs == 2 {
		low.Hi = rec[o]
	}
	return low
}

// put writes range j of an unpublished record.
func (l *layout) put(rec []uint64, j int, low keys.Value, action uint64, ok bool) {
	if j > 0 {
		o := l.hdr + (j-1)*l.limbs
		rec[o+l.limbs-1] = low.Lo
		if l.limbs == 2 {
			rec[o] = low.Hi
		}
	}
	if ok {
		rec[j>>6] |= 1 << (uint(j) & 63)
		rec[l.act+j] = action
	}
}

// view is a bucket's current record — the dense one, or the spill record it
// pointed to when it was opened — for those who do not go through answer: the
// writers, and Engine.reference, which brings a scan of its own.
type view struct {
	l       *layout
	rec     []uint64
	n       int  // ranges in the record
	spilled bool // a spill record: owner words follow the record's
}

// search is bucket.Directory.Search over a spill record's own bounds.
func (v view) search(k keys.Value) (j, comparisons int) {
	for i := 1; i < v.n; i++ {
		comparisons++
		if k.Less(v.l.bound(v.rec, i)) {
			break
		}
		j = i
	}
	return j, comparisons
}

// answer resolves key within bucket b, scan and answer in one routine — every
// lookup's tail. It loads word 0 first: the line the scan is about to read,
// and the word that holds the matched bits; follows the spill bit on a branch
// that is all but never taken; then takes what the in-order hardware scan of
// bucket.Directory.Search arrives at without that scan's exit branch, which
// falls somewhere else in every bucket: the bounds are sorted, so the scan's
// position j is the number of bounds ≤ key — one borrow each, bits.Sub64 — and
// its comparison count is j+1, the bound that stopped it included, or n−1 when
// none did. It answers from the record it scanned.
//
// Writers store a range's action before they set its matched bit and store
// action words whole, and a record a later one has superseded is never written
// again, so matched-then-action returns an answer the trie oracle gave at
// some instant inside the read (DESIGN.md §11).
func (r *records) answer(b int, key keys.Value) (j, comparisons int, action uint64, ok, spilled bool) {
	l, rec, n := &r.layout, r.w[b*r.stride:(b+1)*r.stride], min(r.k, r.nr-b*r.k)
	w0 := atomic.LoadUint64(&rec[0])
	if w0>>spillBit != 0 && r.k <= maxSpillK {
		s := r.spillOf(b)
		l, rec, n, spilled = &s.layout, s.w, s.k, true
		w0 = atomic.LoadUint64(&rec[0])
	}
	bounds := rec[l.hdr-l.limbs:] // bounds[i·limbs] is range i's bound
	if l.limbs == 1 {
		kk := key.Lo
		if key.Hi != 0 {
			kk = ^uint64(0) // out-of-domain key: above every ≤ 64-bit bound
		}
		for _, bound := range bounds[1:n] {
			_, below := bits.Sub64(kk, bound, 0)
			j += 1 - int(below)
		}
	} else {
		for i := 1; i < n; i++ {
			_, below := bits.Sub64(key.Lo, bounds[2*i+1], 0)
			_, below = bits.Sub64(key.Hi, bounds[2*i], below)
			j += 1 - int(below)
		}
	}
	comparisons = min(j+1, n-1)
	if j >= 64 {
		w0 = atomic.LoadUint64(&rec[j>>6])
	}
	// Matched, then action — loaded whether or not the bit is set, so that a
	// miss costs what a hit does — and the action kept only under the bit.
	bit := w0 >> (uint(j) & 63) & 1
	return j, comparisons, atomic.LoadUint64(&rec[l.act+j]) & -bit, bit != 0, spilled
}

// open loads bucket b's word 0 and follows its spill bit, if set. A bucket
// that spills after the load leaves this reader on the dense record, which
// the flip froze in a state that was current inside the read.
func (r *records) open(b int) view {
	rec := r.w[b*r.stride : (b+1)*r.stride]
	if atomic.LoadUint64(&rec[0])>>spillBit != 0 && r.k <= maxSpillK {
		s := r.spillOf(b)
		return view{l: &s.layout, rec: s.w, n: s.k, spilled: true}
	}
	return view{l: &r.layout, rec: rec, n: min(r.k, r.nr-b*r.k)}
}

// resolve answers range j of the record, matched then action like answer.
func (v view) resolve(j int) (action uint64, ok bool) {
	if atomic.LoadUint64(&v.rec[j>>6])>>(uint(j)&63)&1 == 0 {
		return 0, false
	}
	return atomic.LoadUint64(&v.rec[v.l.act+j]), true
}

// touch pulls record b's first line and its action line toward the cache
// without consuming them. Atomic loads: writers store these words, and the
// compiler must not drop the unused reads.
func (r *records) touch(b int) {
	rec := r.w[b*r.stride : (b+1)*r.stride]
	atomic.LoadUint64(&rec[0])
	atomic.LoadUint64(&rec[r.act])
}

// setOwner publishes range j's new owner action: action first, then the
// matched bit, so a reader that finds the bit set finds the action behind it.
// ok false publishes that no live rule covers the range any more.
func (v view) setOwner(j int, action uint64, ok bool) {
	bit := uint64(1) << (uint(j) & 63)
	if !ok {
		atomic.AndUint64(&v.rec[j>>6], ^bit)
		return
	}
	atomic.StoreUint64(&v.rec[v.l.act+j], action)
	atomic.OrUint64(&v.rec[j>>6], bit)
}

// respill publishes bucket b's rebuilt record, filled: one store of its
// pointer, and for a bucket's first the spill bit after it, the dense matched
// bits beneath left as the flip froze them.
func (r *records) respill(b int, s *spillRecord) {
	t := r.spill.Load()
	if t == nil {
		table := make([]atomic.Pointer[spillRecord], (r.nr+r.k-1)/r.k)
		t = &table
		r.spill.Store(t)
	}
	(*t)[b].Store(s)
	if w0 := &r.w[b*r.stride]; atomic.LoadUint64(w0)>>spillBit == 0 {
		atomic.OrUint64(w0, 1<<spillBit)
		r.spilled.Add(1)
	}
}
