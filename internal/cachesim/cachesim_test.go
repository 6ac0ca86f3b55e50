package cachesim

import (
	"math/rand"
	"testing"
)

func mustCache(t testing.TB, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewRejectsBadGeometry(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineSize: 32, Ways: 2},
		{SizeBytes: 1024, LineSize: 0, Ways: 2},
		{SizeBytes: 1024, LineSize: 33, Ways: 2}, // not a power of two
		{SizeBytes: 1024, LineSize: 32, Ways: 0},
		{SizeBytes: 16, LineSize: 32, Ways: 2}, // smaller than one set
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, DefaultConfig(1024))
	c.Read(0, 4)
	if s := c.Stats(); s.Misses != 1 || s.Accesses != 1 || s.Bytes != 32 {
		t.Fatalf("after cold read: %+v", s)
	}
	c.Read(0, 4)
	if s := c.Stats(); s.Misses != 1 || s.Accesses != 2 {
		t.Fatalf("after warm read: %+v", s)
	}
	// Same line, different offset: still a hit.
	c.Read(28, 4)
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("same-line read missed: %+v", s)
	}
}

func TestSpanningAccess(t *testing.T) {
	c := mustCache(t, DefaultConfig(1024))
	c.Read(30, 4) // spans lines 0 and 1
	if s := c.Stats(); s.Lines != 2 || s.Misses != 2 || s.Bytes != 64 {
		t.Fatalf("spanning read: %+v", s)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// 2 ways, 2 sets: lines with the same parity collide.
	c := mustCache(t, Config{SizeBytes: 128, LineSize: 32, Ways: 2})
	lineBytes := uint64(32)
	// Fill set 0 with lines 0 and 2.
	c.Read(0*lineBytes, 1)
	c.Read(2*lineBytes, 1)
	// Touch line 0 so line 2 is LRU.
	c.Read(0*lineBytes, 1)
	// Insert line 4 (same set): should evict line 2.
	c.Read(4*lineBytes, 1)
	base := c.Stats().Misses
	c.Read(0*lineBytes, 1) // hit
	if c.Stats().Misses != base {
		t.Fatal("line 0 was evicted, LRU broken")
	}
	c.Read(2*lineBytes, 1) // miss (was evicted)
	if c.Stats().Misses != base+1 {
		t.Fatal("line 2 should have been evicted")
	}
}

func TestZeroSizeIgnored(t *testing.T) {
	c := mustCache(t, DefaultConfig(1024))
	c.Read(0, 0)
	c.Read(0, -4)
	if s := c.Stats(); s.Accesses != 0 {
		t.Fatalf("zero-size access counted: %+v", s)
	}
}

func TestWorkingSetFits(t *testing.T) {
	// A working set smaller than the cache must converge to zero misses.
	c := mustCache(t, DefaultConfig(64*1024))
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 512)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(32 * 1024))
	}
	for _, a := range addrs { // warmup
		c.Read(a, 4)
	}
	c.ResetStats()
	for round := 0; round < 10; round++ {
		for _, a := range addrs {
			c.Read(a, 4)
		}
	}
	if s := c.Stats(); s.Misses != 0 {
		t.Fatalf("warm working set missed %d times", s.Misses)
	}
}

func TestWorkingSetThrashes(t *testing.T) {
	// A working set much larger than the cache misses nearly always under a
	// sequential sweep (LRU worst case).
	c := mustCache(t, DefaultConfig(1024))
	for round := 0; round < 4; round++ {
		for a := uint64(0); a < 64*1024; a += 32 {
			c.Read(a, 4)
		}
	}
	s := c.Stats()
	if s.MissRate() < 0.99 {
		t.Fatalf("sweep miss rate %.3f, want ~1", s.MissRate())
	}
}

// ResetStats clears the counters but keeps the cache's contents, for a
// test's warm-up phase.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func TestResetStatsKeepsContents(t *testing.T) {
	c := mustCache(t, DefaultConfig(1024))
	c.Read(0, 4)
	c.ResetStats()
	c.Read(0, 4)
	if s := c.Stats(); s.Misses != 0 || s.Accesses != 1 {
		t.Fatalf("warm line lost across ResetStats: %+v", s)
	}
}

func TestMissRate(t *testing.T) {
	if r := (Stats{}).MissRate(); r != 0 {
		t.Fatalf("idle miss rate %g", r)
	}
	if r := (Stats{Accesses: 4, Misses: 1}).MissRate(); r != 0.25 {
		t.Fatalf("miss rate %g", r)
	}
}

func TestUncached(t *testing.T) {
	u := &Uncached{MinBurst: 8}
	u.Read(0, 4)
	u.Read(100, 64)
	s := u.Stats()
	if s.Accesses != 2 || s.Misses != 2 {
		t.Fatalf("uncached stats: %+v", s)
	}
	if s.Bytes != 8+64 {
		t.Fatalf("uncached bytes = %d", s.Bytes)
	}
}

func TestNullMem(t *testing.T) {
	var m Mem = Null{}
	m.Read(0, 1024) // must not panic or record anything
}

func TestCacheImplementsMem(t *testing.T) {
	var _ Mem = (*Cache)(nil)
	var _ Mem = (*Uncached)(nil)
}

func BenchmarkCacheRead(b *testing.B) {
	c := mustCache(b, DefaultConfig(2*1024*1024))
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(16 * 1024 * 1024))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(addrs[i&4095], 4)
	}
}
