// Package cachesim provides the set-associative LRU cache and DRAM-traffic
// accounting used to compare LPM engines at the algorithmic level, exactly
// per the paper's methodology (§10.2): each algorithm routes the reads of
// its DRAM-resident structures through the cache, the miss rate is measured
// per query, and the bandwidth per miss is max(access size, line size).
package cachesim

import "fmt"

// Mem abstracts the off-chip memory path. Algorithms call Read for every
// access to a DRAM-resident structure.
type Mem interface {
	// Read records an access of size bytes at byte address addr.
	Read(addr uint64, size int)
}

// Stats is a point-in-time view of traffic counters.
type Stats struct {
	Accesses uint64 // Read calls
	Lines    uint64 // cache lines touched
	Misses   uint64 // line misses
	Bytes    uint64 // DRAM bytes fetched (max(access, line) per miss)
}

// MissRate returns misses per access (NaN-free: zero when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Config describes a cache. The paper's evaluation uses a 2-way associative
// LRU cache with 32-byte lines.
type Config struct {
	SizeBytes int // total capacity; must be a positive multiple of LineSize*Ways
	LineSize  int
	Ways      int
}

// DefaultConfig returns the evaluation cache: 2-way LRU, 32-byte lines.
func DefaultConfig(sizeBytes int) Config {
	return Config{SizeBytes: sizeBytes, LineSize: 32, Ways: 2}
}

// Cache is a set-associative LRU cache with traffic accounting. Neither is
// safe for concurrent use: each goroutine simulates its own cache.
type Cache struct {
	cfg   Config
	sets  uint64
	tags  []uint64 // sets × ways; tag+1 (0 = invalid)
	ages  []uint64 // LRU stamps
	clock uint64
	stats Stats
}

// New builds a cache. It returns an error when the geometry is inconsistent.
func New(cfg Config) (*Cache, error) {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		return nil, fmt.Errorf("cachesim: line size %d must be a positive power of two", cfg.LineSize)
	}
	if cfg.Ways <= 0 {
		return nil, fmt.Errorf("cachesim: ways %d must be positive", cfg.Ways)
	}
	if cfg.SizeBytes <= 0 {
		return nil, fmt.Errorf("cachesim: size %d must be positive", cfg.SizeBytes)
	}
	sets := cfg.SizeBytes / (cfg.LineSize * cfg.Ways)
	if sets <= 0 {
		return nil, fmt.Errorf("cachesim: size %dB too small for %d-way %dB lines",
			cfg.SizeBytes, cfg.Ways, cfg.LineSize)
	}
	c := &Cache{
		cfg:  cfg,
		sets: uint64(sets),
		tags: make([]uint64, sets*cfg.Ways),
		ages: make([]uint64, sets*cfg.Ways),
	}
	return c, nil
}

// Read implements Mem: it touches every line the access spans, fetching
// missing lines from DRAM. Per the paper, each miss costs
// max(access size, line size) bytes of DRAM bandwidth — but an access that
// spans several lines pays per missing line, never less than its own size
// in total when everything misses.
func (c *Cache) Read(addr uint64, size int) {
	if size <= 0 {
		return
	}
	c.stats.Accesses++
	line := addr / uint64(c.cfg.LineSize)
	last := (addr + uint64(size) - 1) / uint64(c.cfg.LineSize)
	for ; line <= last; line++ {
		c.stats.Lines++
		if !c.touch(line) {
			c.stats.Misses++
			c.stats.Bytes += uint64(c.cfg.LineSize)
		}
	}
}

// touch looks up (and on miss, fills) the line, returning true on hit.
func (c *Cache) touch(line uint64) bool {
	set := line % c.sets
	tag := line + 1 // +1 so the zero value means invalid
	base := int(set) * c.cfg.Ways
	c.clock++
	victim, victimAge := base, c.ages[base]
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.tags[i] == tag {
			c.ages[i] = c.clock
			return true
		}
		if c.ages[i] < victimAge {
			victim, victimAge = i, c.ages[i]
		}
	}
	c.tags[victim] = tag
	c.ages[victim] = c.clock
	return false
}

// Stats returns the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

// Uncached counts DRAM traffic with no cache in front: every access is a
// miss that transfers max(access size, minBurst) bytes. It models the
// paper's cache-less worst-case analyses. It is not safe for concurrent use.
type Uncached struct {
	MinBurst int // minimum DRAM transfer granularity; 0 means exact sizes
	stats    Stats
}

// Read implements Mem.
func (u *Uncached) Read(addr uint64, size int) {
	if size <= 0 {
		return
	}
	u.stats.Accesses++
	u.stats.Lines++
	u.stats.Misses++
	u.stats.Bytes += uint64(max(size, u.MinBurst))
}

// Stats returns the traffic counters.
func (u *Uncached) Stats() Stats { return u.stats }

// Null discards accesses (for SRAM-only runs where off-chip traffic is
// impossible by construction).
type Null struct{}

// Read implements Mem.
func (Null) Read(uint64, int) {}
