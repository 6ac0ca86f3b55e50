// Package lcache is a fixed-size, set-associative, epoch-stamped cache of
// final lookup results ((key) → (action, matched)). It no longer sits in
// front of any lookup path: the result-cache plane was retired after it lost
// end to end against the current engine (DESIGN.md §12). What remains is the
// table itself, which the repository benchmark's trace ledger
// (benchmark/trace.go) times as its lcache.* per-layer baseline.
//
// A Cache is owned by one goroutine at a time, so probes and fills take no
// locks and issue no atomic operations. Put stamps an entry with the epoch it
// is given, and Get only hits when the stamp equals the epoch it is given: a
// caller invalidates every entry at once by moving to a new epoch, with no
// walk. Negative results (no rule matched) are cached the same way.
package lcache

import "neurolpm/internal/keys"

// Outcome classifies one probe. The zero value is no outcome.
type Outcome uint8

const (
	// Hit: answered from the cache at the given epoch.
	Hit Outcome = iota + 1
	// miss: key not present; the caller computes the answer and Puts it.
	miss
	// stale: key present but stamped with another epoch; the caller
	// computes the answer and Puts it.
	stale
)

// entry is one cached result: 32 bytes, two entries per 64-byte cache line.
// meta packs epoch<<1 | matched; meta == 0 marks a never-filled slot, so a
// live epoch must be ≥ 1.
type entry struct {
	keyHi, keyLo uint64
	action       uint64
	meta         uint64
}

const (
	// ways is the set associativity: 4 × 32-byte entries = two cache lines
	// per set.
	ways       = 4
	entryBytes = 32
	setBytes   = ways * entryBytes
	// minBytes is the smallest table New will build (32 sets).
	minBytes = 32 * setBytes
)

// Cache is one single-owner result cache: a power-of-two number of
// ways-entry sets. The zero value is not usable; create with New.
type Cache struct {
	entries []entry
	mask    uint64 // set count − 1
}

// New builds a cache of at most bytes of table (rounded down to a power-of-
// two set count, floored at minBytes).
func New(bytes int) *Cache {
	if bytes < minBytes {
		bytes = minBytes
	}
	sets := 1
	for sets*2*setBytes <= bytes {
		sets *= 2
	}
	return &Cache{entries: make([]entry, sets*ways), mask: uint64(sets - 1)}
}

// hash mixes a 128-bit key into a well-distributed 64-bit set selector
// (splitmix64 finalizer over the folded limbs).
func hash(k keys.Value) uint64 {
	x := k.Lo ^ (k.Hi * 0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Get probes for k at the given epoch (≥ 1). On Hit the cached
// action/matched pair is returned; on miss or stale the caller must compute
// the answer and Put it back stamped with the same epoch.
func (c *Cache) Get(k keys.Value, epoch uint64) (action uint64, matched bool, o Outcome) {
	base := (hash(k) & c.mask) * ways
	set := c.entries[base : base+ways : base+ways]
	want := epoch << 1
	for i := range set {
		e := &set[i]
		if e.keyLo != k.Lo || e.keyHi != k.Hi || e.meta == 0 {
			continue
		}
		if e.meta&^uint64(1) == want {
			return e.action, e.meta&1 == 1, Hit
		}
		return 0, false, stale
	}
	return 0, false, miss
}

// Put fills k's entry with the computed result, stamped with epoch (≥ 1).
// Victim selection: the key's existing slot first (so Get and Put agree on
// which duplicate is live), then the first empty or dead-epoch way, then a
// hash-selected way.
func (c *Cache) Put(k keys.Value, epoch uint64, action uint64, matched bool) {
	h := hash(k)
	base := (h & c.mask) * ways
	set := c.entries[base : base+ways : base+ways]
	cur := epoch << 1
	idx := -1
	for i := range set {
		e := &set[i]
		if e.keyLo == k.Lo && e.keyHi == k.Hi && e.meta != 0 {
			idx = i
			break
		}
		if idx < 0 && (e.meta == 0 || e.meta&^uint64(1) != cur) {
			idx = i
		}
	}
	if idx < 0 {
		idx = int(h >> 62) // ways == 4: top two hash bits pick the victim
	}
	e := &set[idx]
	e.keyHi, e.keyLo, e.action = k.Hi, k.Lo, action
	m := cur
	if matched {
		m |= 1
	}
	e.meta = m
}
