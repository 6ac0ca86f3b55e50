package core

import (
	"math"
	"math/bits"
	"sync/atomic"

	"neurolpm/internal/keys"
	"neurolpm/internal/ranges"
)

// layout is the 32-bit word layout of one record of capacity k (DESIGN.md
// §10):
//
//	word 0                  the header: non-zero once the bucket answers from a spill record
//	word 1+(j−1)·limbs      lower bound of range j, j = 1..k−1, most significant limb first
//	word act+j              the action id of range j's owner, 0 for no live owner
//
// with limbs = ⌈width/32⌉, act = 1+(k−1)·limbs, stride = act+k. At width ≤ 32
// and k = 8 a record is 16 words, 64 bytes: one cache line on the array's
// 64-byte aligned base.
type layout struct {
	k, limbs, act, stride int
}

func newLayout(k, limbs int) layout {
	act := 1 + (k-1)*limbs
	return layout{k: k, limbs: limbs, act: act, stride: act + k}
}

// records is the engine's answer store: one dense record per bucket holding
// everything a query needs once the directory search has named the bucket, so
// the scan and the answer touch that record and the engine-wide action table
// and nothing else — no range-owner table, no tombstones, no per-rule actions.
// SRAM-only engines are the K = 1 case: a header and an id word per range.
//
// A record holds action ids, not actions: acts[id] is the action, and id 0 is
// no live owner. The table grows by publishing a new slice header, and a
// writer publishes an id's entry before it stores the id anywhere, so a reader
// that loaded an id finds its entry in the table it loads next. An id never
// changes its action: a rebuild interns afresh from the live rules.
//
// The dense records are what Build laid out and never gain a range. A bucket
// an absorbed insert adds a boundary to is rebuilt as a spillRecord — a heap
// object of exactly the ranges it holds — and published by one store of its
// pointer to the bucket's entry of the spill table; the first time, that
// store is followed by setting the dense record's header, so a reader that
// sees it set finds the pointer. From then on the dense record is frozen, and
// so is a spill record once a later insert has superseded it: a reader that
// loaded the old pointer finishes on a record nobody writes any more, and the
// collector takes it when the last such reader has left. Bounds are immutable
// wherever they live; the id words of a bucket's current record are what
// Insert, Delete and ModifyAction rewrite, accessed atomically.
type records struct {
	layout
	w  []uint32
	nr int // ranges covered
	// acts is the action table, acts[0] = 0. ids is its inverse, the
	// writers' alone: an open-addressed hash of ids (0, an empty slot) at most
	// half full, which Build drops and the first intern after it remakes.
	// limit is the length past which the table is overgrown, 0 once a
	// bucket is (respill).
	acts  atomic.Pointer[[]uint64]
	ids   []uint32
	limit int
	// spill[b] is bucket b's current spill record; the table is nil until the
	// first absorbed boundary.
	spill   atomic.Pointer[[]atomic.Pointer[spillRecord]]
	spilled atomic.Int64 // buckets answering from a spill record
}

// maxSpillRanges is what a spill record may grow to before its engine is
// overgrown, and the longest scan a dense record costs (K = 64): a K = 64
// engine is overgrown at its first spill.
const maxSpillRanges = 64

// spillRecord is a spilled bucket in one allocation: a record at the capacity
// of exactly its ranges, then one word a range for what the range array is to
// a dense record — the owner table (a rule index, or ranges.NoRule; atomic)
// that owned, Delete, ModifyAction and Insert walk and rewrite. Its bounds are
// the record's own, immutable; range 0's is the bucket's directory bound,
// which the compiled plane keeps.
type spillRecord struct {
	layout
	w []uint32 // stride record words, k owner words
}

func newSpillRecord(n, limbs int) *spillRecord {
	s := &spillRecord{layout: newLayout(n, limbs)}
	s.w = make([]uint32, s.stride+n)
	return s
}

// spillOf returns bucket b's spill record, for a caller that saw b's header set.
func (r *records) spillOf(b int) *spillRecord { return (*r.spill.Load())[b].Load() }

// newRecords lays the range array out as records of k ranges in one linear
// pass, interning each range's answer from the owner table.
func newRecords(ra *ranges.Array, k int) *records {
	r := &records{layout: newLayout(k, (ra.Width+31)/32), nr: ra.Len()}
	acts := []uint64{0}
	r.acts.Store(&acts)
	r.w = keys.LineAligned((r.nr + k - 1) / k * r.stride)
	// memo spares most ranges intern's probe when the rule-set has few
	// distinct actions, as routing tables do.
	var memo [256]uint32
	for i := range r.nr {
		var id uint32
		if a, ok := ra.Action(i); ok {
			h := uint8(a * 0x9e3779b97f4a7c15 >> 56)
			if id = memo[h]; id == 0 || (*r.acts.Load())[id] != a {
				id = r.intern(a)
				memo[h] = id
			}
		}
		r.put(r.w[i/k*r.stride:], i%k, ra.Low(i), id)
	}
	r.ids = nil // an engine nobody writes keeps no inverse
	r.limit = 2*len(*r.acts.Load()) + tableSlack
	return r
}

// tableSlack is how far past twice its built length the action table may
// grow before it is overgrown.
const tableSlack = 1024

// overgrown reports whether writers have grown the action table past its
// limit, or a bucket past what its engine should scan (respill). An id is
// never reused — a reader may hold it — so the table only grows, and only a
// rebuild, which interns afresh from the live rules, sheds the values no rule
// holds any more (Engine.Compact).
func (r *records) overgrown() bool { return len(*r.acts.Load()) > r.limit }

// intern returns action a's id, adding it to the table — published before
// the id is returned — the first time. Writers are serialized.
func (r *records) intern(a uint64) uint32 {
	t := *r.acts.Load()
	// (Re)make the inverse before one more value could fill it past half.
	if 2*len(t)+2 > len(r.ids) {
		r.ids = make([]uint32, 1<<bits.Len(uint(4*len(t))))
		for id := 1; id < len(t); id++ {
			r.ids[r.slot(t, t[id])] = uint32(id)
		}
	}
	i := r.slot(t, a)
	if r.ids[i] == 0 {
		grown := append(t, a) // shares the old words while capacity lasts
		r.acts.Store(&grown)
		r.ids[i] = uint32(len(t))
	}
	return r.ids[i]
}

// slot returns the slot of ids that holds a's id, or the empty one it goes in.
func (r *records) slot(t []uint64, a uint64) int {
	mask := len(r.ids) - 1
	for i := int(a*0x9e3779b97f4a7c15>>32) & mask; ; i = (i + 1) & mask {
		if id := r.ids[i]; id == 0 || t[id] == a {
			return i
		}
	}
}

// limbsOf returns the words of range j's bound, j ≥ 1.
func (l *layout) limbsOf(rec []uint32, j int) []uint32 {
	o := 1 + (j-1)*l.limbs
	return rec[o : o+l.limbs]
}

// bound returns the lower bound put wrote for range j ≥ 1.
func (l *layout) bound(rec []uint32, j int) (low keys.Value) {
	for _, w := range l.limbsOf(rec, j) {
		low.Hi = low.Hi<<32 | low.Lo>>32
		low.Lo = low.Lo<<32 | uint64(w)
	}
	return low
}

// put writes range j of an unpublished record.
func (l *layout) put(rec []uint32, j int, low keys.Value, id uint32) {
	if j > 0 {
		limbs := l.limbsOf(rec, j)
		for i := len(limbs) - 1; i >= 0; i-- {
			limbs[i] = uint32(low.Lo)
			low.Lo, low.Hi = low.Lo>>32|low.Hi<<32, low.Hi>>32
		}
	}
	rec[l.act+j] = id
}

// view is a bucket's current record — the dense one, or the spill record it
// pointed to when it was opened — for those who do not go through answer: the
// writers, and Engine.reference, which brings a scan of its own.
type view struct {
	r       *records
	l       *layout
	rec     []uint32
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
// lookup's tail. It loads the header first, on the line the scan is about to
// read; follows it to the spill record on a branch that is all but never
// taken; then takes what the in-order hardware scan of
// bucket.Directory.Search arrives at without that scan's exit branch, which
// falls somewhere else in every bucket: the bounds are sorted, so the scan's
// position j is the number of bounds ≤ key — one borrow each: bits.Sub32 on
// one limb, one bits.Sub64 on two, two on three or four, each bound's limbs
// joined in registers — and its comparison count is j+1, the bound that stopped
// it included, or n−1 when none did. It answers with range j's id from the
// record it scanned, looked up in the action table: id 0, no live owner,
// maps to action 0 and ok false, so a miss costs what a hit does.
//
// Writers publish an id's table entry before they store the id, store id
// words whole, and never write a record a later one has superseded, so id
// then table returns an answer the trie oracle gave at some instant inside
// the read (DESIGN.md §11).
func (r *records) answer(b int, key keys.Value) (j, comparisons int, action uint64, ok, spilled bool) {
	l, rec, n := &r.layout, r.w[b*r.stride:(b+1)*r.stride], min(r.k, r.nr-b*r.k)
	if atomic.LoadUint32(&rec[0]) != 0 {
		s := r.spillOf(b)
		l, rec, n, spilled = &s.layout, s.w, s.k, true
	}
	bounds := rec[1 : 1+(n-1)*l.limbs]
	switch l.limbs {
	case 1:
		kk := uint32(key.Lo)
		if key.Hi != 0 || key.Lo > math.MaxUint32 {
			kk = math.MaxUint32 // out-of-domain key: above every ≤ 32-bit bound
		}
		for _, bound := range bounds {
			_, below := bits.Sub32(kk, bound, 0)
			j += 1 - int(below)
		}
	case 2:
		kk := key.Lo
		if key.Hi != 0 {
			kk = math.MaxUint64 // out-of-domain key: above every ≤ 64-bit bound
		}
		for i := 0; i+1 < len(bounds); i += 2 {
			_, below := bits.Sub64(kk, uint64(bounds[i])<<32|uint64(bounds[i+1]), 0)
			j += 1 - int(below)
		}
	default: // 3 or 4 limbs: the last two are the low half, the rest the high
		h := l.limbs - 2
		for i := 0; i+l.limbs <= len(bounds); i += l.limbs {
			hi := uint64(bounds[i])
			if h == 2 {
				hi = hi<<32 | uint64(bounds[i+1])
			}
			_, below := bits.Sub64(key.Lo, uint64(bounds[i+h])<<32|uint64(bounds[i+h+1]), 0)
			_, below = bits.Sub64(key.Hi, hi, below)
			j += 1 - int(below)
		}
	}
	comparisons = min(j+1, n-1)
	id := atomic.LoadUint32(&rec[l.act+j])
	return j, comparisons, (*r.acts.Load())[id], id != 0, spilled
}

// open loads bucket b's header and follows it, if set. A bucket that spills
// after the load leaves this reader on the dense record, which the flip
// froze in a state that was current inside the read.
func (r *records) open(b int) view {
	rec := r.w[b*r.stride : (b+1)*r.stride]
	if atomic.LoadUint32(&rec[0]) != 0 {
		s := r.spillOf(b)
		return view{r: r, l: &s.layout, rec: s.w, n: s.k, spilled: true}
	}
	return view{r: r, l: &r.layout, rec: rec, n: min(r.k, r.nr-b*r.k)}
}

// id loads range j's action id.
func (v view) id(j int) uint32 { return atomic.LoadUint32(&v.rec[v.l.act+j]) }

// resolve answers range j of the record, id then table like answer.
func (v view) resolve(j int) (action uint64, ok bool) {
	id := v.id(j)
	return (*v.r.acts.Load())[id], id != 0
}

// touch pulls record b's line toward the cache without consuming it. An
// atomic load: writers store the header, and the compiler must not drop the
// unused read.
func (r *records) touch(b int) { atomic.LoadUint32(&r.w[b*r.stride]) }

// setOwner publishes range j's new owner: one store of an id the table
// already holds (intern), or of 0 when no live rule covers the range any more.
func (v view) setOwner(j int, id uint32) { atomic.StoreUint32(&v.rec[v.l.act+j], id) }

// respill publishes bucket b's rebuilt record, filled: one store of its
// pointer, and for a bucket's first the header after it, the dense ids
// beneath left as the flip froze them. A record past maxSpillRanges, or any
// spill of an SRAM-only engine (k = 1), whose learned index is its ranges,
// makes the records overgrown: the limit drops to 0, below the table's
// length of at least 1.
func (r *records) respill(b int, s *spillRecord) {
	if s.k > maxSpillRanges || r.k == 1 {
		r.limit = 0
	}
	t := r.spill.Load()
	if t == nil {
		table := make([]atomic.Pointer[spillRecord], (r.nr+r.k-1)/r.k)
		t = &table
		r.spill.Store(t)
	}
	(*t)[b].Store(s)
	if w0 := &r.w[b*r.stride]; atomic.LoadUint32(w0) == 0 {
		atomic.StoreUint32(w0, 1)
		r.spilled.Add(1)
	}
}
