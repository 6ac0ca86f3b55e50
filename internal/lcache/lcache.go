// Package lcache is the hot-key result cache plane (DESIGN.md §12): a
// fixed-size, set-associative, epoch-invalidated cache of final lookup
// results ((key) → (action, matched)) that sits in front of the compiled
// query plane. Real LPM traffic is heavily skewed — the paper's §10
// methodology models Zipf flow popularity with bursty temporal locality —
// so a repeated hot key can skip RQRMI inference, the bounded secondary
// search and the DRAM bucket fetch entirely and be answered from one or two
// cache lines of SRAM-sized state.
//
// Concurrency model — single owner, shared epochs:
//
//   - A Cache is owned by exactly one goroutine at a time: a serving path
//     checks one out of a Pool for the duration of a lookup or one batch
//     group and puts it back. Probes and fills therefore take no locks and
//     issue no atomic operations on the table itself.
//   - Invalidation is carried entirely by Epoch, a shared padded atomic
//     counter bumped by writers after every mutation (tombstone delete,
//     action modify, delta insert, committed engine swap). Entries are
//     stamped with the epoch value the reader loaded before it computed the
//     result; a probe only hits when the stamp equals the current epoch, so
//     stale entries die on read with no invalidation walk.
//
// Correctness argument (the fill/invalidate race): a reader loads the epoch
// E before touching any engine state, computes, and stamps its fill with E.
// A writer completes its mutation before bumping. If the mutation finished
// before the reader's epoch load, the reader stamps E ≥ post-bump value only
// after the bump — and Go's atomics give acquire/release ordering, so the
// reader's recompute sees the mutation. If the mutation finished after the
// load, the fill is stamped with the pre-bump epoch and is dead on arrival:
// every later probe sees stamp ≠ current and recomputes. Either way no probe
// can return a pre-mutation action under a post-mutation epoch. Negative
// results (no live rule matched) are cached under the same rule.
//
// Adaptive bypass: caching only pays when traffic repeats keys. Each cache
// monitors its own windowed hit rate; when a window closes below the
// break-even threshold the cache bypasses itself for a fixed number of keys
// and then re-probes a trial window. On a uniform (worst-case) trace this
// bounds the plane's overhead to the duty cycle of the trial windows.
package lcache

import (
	"sync"
	"sync/atomic"

	"neurolpm/internal/keys"
	"neurolpm/internal/telemetry"
)

// Epoch is a cache-line-padded atomic invalidation counter. The zero value
// is ready to use and reads as epoch 1, so zero-initialized cache entries
// (stamp 0) can never match a live epoch. Writers call Bump after completing
// a mutation; readers Load once per lookup (or once per batch group) before
// touching engine state and stamp their fills with that value.
type Epoch struct {
	n atomic.Uint64
	_ [56]byte
}

// Load returns the current epoch (≥ 1).
func (e *Epoch) Load() uint64 { return e.n.Load() + 1 }

// Bump advances the epoch, logically invalidating every entry stamped with
// an older value — O(1), no walk. Call it after the mutation is visible.
func (e *Epoch) Bump() { e.n.Add(1) }

// Outcome classifies one cached-lookup probe.
type Outcome uint8

const (
	// None: the cache plane is disabled or bypassed — the query went
	// straight to the engine.
	None Outcome = iota
	// Hit: answered from the cache at the current epoch.
	Hit
	// Miss: key not present; the engine answered and the entry was filled.
	Miss
	// Stale: key present but stamped with a dead epoch (invalidated by an
	// update); the engine answered and the entry was refilled.
	Stale
)

// String returns the /trace spelling of the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case Stale:
		return "stale"
	}
	return "off"
}

// entry is one cached result: 32 bytes, two entries per 64-byte cache line.
// meta packs epoch<<1 | matched; meta == 0 marks a never-filled slot (a live
// epoch is always ≥ 1).
type entry struct {
	keyHi, keyLo uint64
	action       uint64
	meta         uint64
}

const (
	// Ways is the set associativity: 4 × 32-byte entries = two cache lines
	// per set.
	Ways       = 4
	entryBytes = 32
	setBytes   = Ways * entryBytes
	// MinBytes is the smallest table New will build (32 sets).
	MinBytes = 32 * setBytes
)

// Adaptive-bypass tuning: a window of bypassWindow probes closing with a hit
// rate below 1/bypassDenom (12.5%, near the probe-cost/hit-savings
// break-even on the reference machine) bypasses the cache for bypassPeriod
// keys before the next trial window. Worst-case (zero-hit) duty cycle:
// 2048/(2048+131072) ≈ 1.5% of keys pay the probe cost, bounding the
// uniform-traffic overhead well under the measurement noise floor. At a few
// Mlookups/s a bypass period lasts tens of milliseconds, so a workload that
// turns hot is re-detected quickly.
const (
	bypassWindow = 2048
	bypassDenom  = 8
	bypassPeriod = 131072
)

// Cache is one single-owner result cache: a power-of-two number of
// Ways-entry sets. The zero value is not usable; create with New. All
// methods also accept a nil receiver (Bypassed reports true), so disabled
// cache planes need no branches at call sites.
type Cache struct {
	entries []entry
	mask    uint64 // set count − 1

	// Windowed self-monitoring; single-owner, so plain fields.
	winProbes  uint32
	winHits    uint32
	bypassLeft int

	// tick numbers this cache's lookups for flight-recorder sampling
	// (single-owner, so a plain increment — the cached hit path stays free
	// of atomics).
	tick uint64
}

// SampleTick returns this cache's next lookup ordinal — the sampling tick
// the cached query paths feed telemetry.Flight.HitN, mirroring how the
// uncached paths reuse the lookup counter's value. Single-owner like every
// other Cache method.
func (c *Cache) SampleTick() uint64 {
	c.tick++
	return c.tick
}

// New builds a cache of at most bytes of table (rounded down to a power-of-
// two set count, floored at MinBytes).
func New(bytes int) *Cache {
	if bytes < MinBytes {
		bytes = MinBytes
	}
	sets := 1
	for sets*2*setBytes <= bytes {
		sets *= 2
	}
	return &Cache{entries: make([]entry, sets*Ways), mask: uint64(sets - 1)}
}

// Bytes returns the table's actual size in bytes.
func (c *Cache) Bytes() int { return len(c.entries) * entryBytes }

// Len returns the entry capacity.
func (c *Cache) Len() int { return len(c.entries) }

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

// Bypassed reports whether the next n keys should skip the cache entirely
// (nil cache, or the adaptive-bypass heuristic is in its off period). When
// bypassing it consumes n keys from the off period, so callers check once
// per batch group, not per key.
func (c *Cache) Bypassed(n int) bool {
	if c == nil {
		return true
	}
	if c.bypassLeft <= 0 {
		return false
	}
	c.bypassLeft -= n
	metBypassed.Add(uint64(n))
	return true
}

// Get probes for k at the given epoch (loaded by the caller before touching
// any engine state). On Hit the cached action/matched pair is returned; on
// Miss or Stale the caller must compute the answer and Put it back stamped
// with the same epoch value.
func (c *Cache) Get(k keys.Value, epoch uint64) (action uint64, matched bool, o Outcome) {
	base := (hash(k) & c.mask) * Ways
	set := c.entries[base : base+Ways : base+Ways]
	c.winProbes++
	want := epoch << 1
	for i := range set {
		e := &set[i]
		if e.keyLo != k.Lo || e.keyHi != k.Hi || e.meta == 0 {
			continue
		}
		// Right key under a dead epoch still proves locality: count it as a
		// window hit so a mass invalidation (epoch bump) cannot trip the
		// bypass heuristic while the hot set refills.
		c.winHits++
		if e.meta&^uint64(1) == want {
			c.closeWindow()
			metHits.Inc()
			return e.action, e.meta&1 == 1, Hit
		}
		c.closeWindow()
		metStale.Inc()
		return 0, false, Stale
	}
	c.closeWindow()
	metMisses.Inc()
	return 0, false, Miss
}

// closeWindow rolls the self-monitoring window and arms the bypass period
// when the closing window's hit rate is below 1/bypassDenom.
func (c *Cache) closeWindow() {
	if c.winProbes < bypassWindow {
		return
	}
	if bypassDenom*c.winHits < c.winProbes {
		c.bypassLeft = bypassPeriod
	}
	c.winProbes, c.winHits = 0, 0
}

// Put fills k's entry with the computed result, stamped with the epoch the
// caller loaded before computing. Victim selection: the key's existing slot
// first (so Get and Put agree on which duplicate is live), then the first
// empty or dead-epoch way, then a hash-selected way.
func (c *Cache) Put(k keys.Value, epoch uint64, action uint64, matched bool) {
	h := hash(k)
	base := (h & c.mask) * Ways
	set := c.entries[base : base+Ways : base+Ways]
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
		idx = int(h >> 62) // Ways == 4: top two hash bits pick the victim
	}
	e := &set[idx]
	e.keyHi, e.keyLo, e.action = k.Hi, k.Lo, action
	m := cur
	if matched {
		m |= 1
	}
	e.meta = m
	metFills.Inc()
}

// Pool hands out equally-sized caches with exclusive ownership — the whole
// of the sharded engine's cache plane (shard fan-out groups, per-request
// HTTP lookups): Get before probing, Put when the request or batch group is
// done. Backed by sync.Pool, so steady-state traffic reuses warm
// tables without allocation; the GC may drop idle tables, which only costs
// refills. A nil *Pool hands out nil caches (the disabled plane).
type Pool struct {
	bytes int
	pool  sync.Pool
}

// NewPool returns a pool of caches of the given size.
func NewPool(bytes int) *Pool {
	p := &Pool{bytes: bytes}
	p.pool.New = func() any { return New(bytes) }
	return p
}

// Get takes exclusive ownership of a cache (nil when p is nil).
func (p *Pool) Get() *Cache {
	if p == nil {
		return nil
	}
	return p.pool.Get().(*Cache)
}

// Put returns a cache taken with Get.
func (p *Pool) Put(c *Cache) {
	if p == nil || c == nil {
		return
	}
	p.pool.Put(c)
}

// Bytes returns the per-cache table size the pool was built with.
func (p *Pool) Bytes() int {
	if p == nil {
		return 0
	}
	return p.bytes
}

// The lcache metric family (DESIGN.md §8). Counters are the process-wide
// lock-free sharded kind, aggregated across every cache instance; per-run
// views (experiments, tests) snapshot deltas.
var (
	metHits = telemetry.Default.Counter("neurolpm_lcache_hits_total",
		"Result-cache probes answered from the cache at the current epoch")
	metMisses = telemetry.Default.Counter("neurolpm_lcache_misses_total",
		"Result-cache probes that found no entry for the key")
	metStale = telemetry.Default.Counter("neurolpm_lcache_stale_total",
		"Result-cache probes that found the key under a dead epoch (entry invalidated by an update)")
	metFills = telemetry.Default.Counter("neurolpm_lcache_fills_total",
		"Result-cache entries written (misses and stale refills)")
	metBypassed = telemetry.Default.Counter("neurolpm_lcache_bypassed_total",
		"Keys that skipped the cache while the adaptive bypass was active")
)

func init() {
	telemetry.Default.Gauge("neurolpm_lcache_hit_rate",
		"Result-cache hits / probes (0 before any probe)",
		func() float64 {
			h := metHits.Load()
			total := h + metMisses.Load() + metStale.Load()
			if total == 0 {
				return 0
			}
			return float64(h) / float64(total)
		})
}
