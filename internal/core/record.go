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
// an absorbed insert adds a boundary to is rebuilt in a slot of the spill
// area — the same layout at capacity 2K — and published by one store to the
// dense record's word 0, whose high half is the redirect: (slot+1) above
// spillNBits bits of (ranges−1), 0 while the bucket is not spilled. From then
// on the dense record is frozen, and so is a spill slot once a later insert
// has superseded it: a reader that loaded an old word 0 finishes on a record
// nobody writes any more. Bounds are immutable wherever they live; matched
// and action words of a bucket's current record are what Insert, Delete and
// ModifyAction rewrite, accessed atomically.
type records struct {
	layout
	w       []uint64
	nr      int                       // ranges covered
	spill   atomic.Pointer[spillArea] // nil until the first absorbed boundary
	spilled atomic.Int64              // buckets answering from a spill record
}

const (
	spillShift = 32 // word 0's high half is the redirect
	spillNBits = 6  // its low bits: ranges in the spill record − 1
	// maxSpillK is the largest K with a spare high half in word 0; above it
	// those bits are matched bits and the bucket cannot spill.
	maxSpillK = 32
	// Chunk c of the spill area holds spillBase<<c slots, so spillChunks
	// chunks cover every slot a redirect can name and none is ever moved.
	spillBase   = 16
	maxSlots    = 1<<(32-spillNBits) - 1
	spillChunks = 23 // spillBase·(2^spillChunks − 1) ≥ maxSlots
)

// spillArea is the append-only store of spill records. Slots are handed out
// in order and never reused for the life of the engine.
type spillArea struct {
	layout // capacity 2K
	chunks [spillChunks]atomic.Pointer[spillChunk]
	used   int // slots handed out (writers only)
}

type spillChunk struct {
	w []uint64 // the chunk's records, 64-byte aligned
	// meta[i] is slot i's writer-side tables; stored before the redirect that
	// names the slot.
	meta []*spillMeta
}

// spillMeta is what the range array is to a dense record: the spill record's
// bounds as keys and its owner table. The reference arm scans lows; owned,
// Delete, ModifyAction and Insert walk and rewrite owners.
type spillMeta struct {
	lows   []keys.Value // lows[0] is the bucket's directory bound; immutable
	owners []int32      // rule owning each range, or ranges.NoRule; atomic
}

// search is bucket.Directory.Search over a spill record's own bounds.
func (m *spillMeta) search(k keys.Value) (j, comparisons int) {
	for i := 1; i < len(m.lows); i++ {
		comparisons++
		if k.Less(m.lows[i]) {
			break
		}
		j = i
	}
	return j, comparisons
}

// chunk returns the index of the chunk holding slot and the slot's index in it.
func chunkOf(slot int) (ci, off int) {
	ci = bits.Len(uint(slot/spillBase+1)) - 1
	return ci, slot - spillBase*(1<<ci-1)
}

// open follows a redirect to the spill record it names.
func (s *spillArea) open(red uint64) view {
	ci, off := chunkOf(int(red>>spillNBits) - 1)
	c := s.chunks[ci].Load()
	return view{
		l:   &s.layout,
		rec: c.w[off*s.stride : (off+1)*s.stride],
		n:   int(red&(1<<spillNBits-1)) + 1,
		m:   c.meta[off],
	}
}

// alloc hands out the next slot to a record whose tables are m and returns
// its redirect and its zeroed words; the caller fills the words, then
// publishes the redirect.
func (s *spillArea) alloc(m *spillMeta) (red uint64, rec []uint64) {
	slot := s.used
	s.used++
	ci, off := chunkOf(slot)
	c := s.chunks[ci].Load()
	if c == nil {
		slots := spillBase << ci
		c = &spillChunk{w: alignedWords(slots * s.stride), meta: make([]*spillMeta, slots)}
		s.chunks[ci].Store(c)
	}
	c.meta[off] = m
	return uint64(slot+1)<<spillNBits | uint64(len(m.lows)-1), c.w[off*s.stride : (off+1)*s.stride]
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
	r := &records{layout: newLayout(k, (ra.Width+63)/64), nr: ra.Len()}
	r.w = alignedWords((r.nr + k - 1) / k * r.stride)
	for i := range ra.Entries {
		a, ok := ra.Action(i)
		r.put(r.w[i/k*r.stride:], i%k, ra.Entries[i].Low, a, ok)
	}
	return r
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

// view is a bucket's current record — the dense one, or the spill record word
// 0 named when it was opened — for those who do not go through answer: the
// writers, and the arms that bring a scan of their own (reference, slow tier).
type view struct {
	l   *layout
	rec []uint64
	n   int        // ranges in the record
	m   *spillMeta // non-nil for a spill record
}

// answer resolves key within bucket b, scan and answer in one routine — every
// lookup's tail. It loads word 0 first: the line the scan is about to read,
// and the word that holds the matched bits; follows the redirect on a branch
// that is all but never taken; then runs the same in-order hardware scan as
// bucket.Directory.Search (identical position and comparison count) over the
// record's own bounds, and answers from the record it scanned.
//
// Writers store a range's action before they set its matched bit and store
// action words whole, and a record a redirect has superseded is never written
// again, so matched-then-action returns an answer the trie oracle gave at
// some instant inside the read (DESIGN.md §11).
func (r *records) answer(b int, key keys.Value) (j, comparisons int, action uint64, ok, spilled bool) {
	l, rec, n := &r.layout, r.w[b*r.stride:(b+1)*r.stride], min(r.k, r.nr-b*r.k)
	w0 := atomic.LoadUint64(&rec[0])
	if w0>>spillShift != 0 && r.k <= maxSpillK {
		v := r.spill.Load().open(w0 >> spillShift)
		l, rec, n, spilled = v.l, v.rec, v.n, true
		w0 = atomic.LoadUint64(&rec[0])
	}
	bounds := rec[l.hdr-l.limbs:] // bounds[i·limbs] is range i's bound
	if l.limbs == 1 {
		kk := key.Lo
		if key.Hi != 0 {
			kk = ^uint64(0) // out-of-domain key: above every ≤ 64-bit bound
		}
		for i := 1; i < n; i++ {
			comparisons++
			if kk < bounds[i] {
				break
			}
			j = i
		}
	} else {
		for i := 1; i < n; i++ {
			comparisons++
			if key.Less(keys.Value{Hi: bounds[2*i], Lo: bounds[2*i+1]}) {
				break
			}
			j = i
		}
	}
	if j >= 64 {
		w0 = atomic.LoadUint64(&rec[j>>6])
	}
	if w0>>(uint(j)&63)&1 == 0 {
		return j, comparisons, 0, false, spilled
	}
	return j, comparisons, atomic.LoadUint64(&rec[l.act+j]), true, spilled
}

// open loads bucket b's word 0 and follows its redirect, if any. A bucket
// that spills after the load leaves this reader on the dense record, which
// the flip froze in a state that was current inside the read.
func (r *records) open(b int) view {
	rec := r.w[b*r.stride : (b+1)*r.stride]
	if red := atomic.LoadUint64(&rec[0]) >> spillShift; red != 0 && r.k <= maxSpillK {
		return r.spill.Load().open(red)
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

// respill publishes bucket b's rebuilt record: one store of word 0's redirect,
// the dense matched bits beneath it left as the flip froze them.
func (r *records) respill(b int, red uint64) {
	w0 := &r.w[b*r.stride]
	old := atomic.LoadUint64(w0)
	if old>>spillShift == 0 {
		r.spilled.Add(1)
	}
	atomic.StoreUint64(w0, old&(1<<spillShift-1)|red<<spillShift)
}
