package lcache

import (
	"testing"

	"neurolpm/internal/keys"
)

// TestEpochZeroValueNeverMatchesEmptyEntry: the first live epoch, 1, never
// matches a never-filled (zero) entry.
func TestEpochZeroValueNeverMatchesEmptyEntry(t *testing.T) {
	c := New(MinBytes)
	k := keys.Value{} // key 0: worst case for zero-initialized entries
	if _, _, o := c.Get(k, 1); o != Miss {
		t.Fatalf("probe of empty cache for key 0 at epoch 1 = %v, want miss", o)
	}
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(64 << 10)
	const e = 1
	pos := keys.Value{Lo: 42}
	neg := keys.Value{Lo: 7, Hi: 3}
	c.Put(pos, e, 99, true)
	c.Put(neg, e, 0, false) // negative result cached identically
	if a, m, o := c.Get(pos, e); o != Hit || !m || a != 99 {
		t.Fatalf("Get(pos) = (%d,%v,%v), want (99,true,hit)", a, m, o)
	}
	if _, m, o := c.Get(neg, e); o != Hit || m {
		t.Fatalf("Get(neg) = (_,%v,%v), want cached negative hit", m, o)
	}
}

func TestBumpInvalidatesAndRefillRevives(t *testing.T) {
	c := New(MinBytes)
	k := keys.Value{Lo: 5}
	const e1, e2 = 1, 2
	c.Put(k, e1, 10, true)
	if _, _, o := c.Get(k, e2); o != Stale {
		t.Fatalf("post-bump probe = %v, want stale", o)
	}
	c.Put(k, e2, 11, true)
	if a, _, o := c.Get(k, e2); o != Hit || a != 11 {
		t.Fatalf("refilled probe = (%d,%v), want (11,hit)", a, o)
	}
	// A fill stamped with the dead epoch must be dead on arrival.
	c.Put(k, e1, 10, true)
	if _, _, o := c.Get(k, e2); o != Stale {
		t.Fatalf("probe after dead-epoch fill = %v, want stale", o)
	}
}

func TestPutPrefersExistingSlot(t *testing.T) {
	c := New(MinBytes)
	const e = 1
	k := keys.Value{Lo: 77}
	c.Put(k, e, 1, true)
	c.Put(k, e, 2, true) // update in place, not a second way
	if a, _, o := c.Get(k, e); o != Hit || a != 2 {
		t.Fatalf("Get after double Put = (%d,%v), want (2,hit)", a, o)
	}
}

func TestSetOverflowEvicts(t *testing.T) {
	c := New(MinBytes)
	const e = 1
	// Ways+1 distinct keys mapping to one set: the last Put must evict one.
	target := hash(keys.Value{Lo: 0}) & c.mask
	var colliding []keys.Value
	for lo := uint64(0); len(colliding) < Ways+1; lo++ {
		k := keys.Value{Lo: lo}
		if hash(k)&c.mask == target {
			colliding = append(colliding, k)
		}
	}
	for i, k := range colliding {
		c.Put(k, e, uint64(i), true)
	}
	hits := 0
	for i, k := range colliding {
		if a, _, o := c.Get(k, e); o == Hit {
			hits++
			if a != uint64(i) {
				t.Fatalf("hit for key %v returned %d, want %d", k, a, i)
			}
		}
	}
	if hits != Ways {
		t.Fatalf("after %d fills into one set, %d hits, want exactly %d", Ways+1, hits, Ways)
	}
}

func TestNewRoundsToPowerOfTwoSets(t *testing.T) {
	for _, bytes := range []int{0, 1, MinBytes, MinBytes + 1, 48 << 10, 64 << 10, 1 << 20} {
		c := New(bytes)
		sets := len(c.entries) / Ways
		if sets&(sets-1) != 0 {
			t.Fatalf("New(%d): %d sets, not a power of two", bytes, sets)
		}
		if c.Bytes() > bytes && bytes >= MinBytes {
			t.Fatalf("New(%d) built %d bytes, exceeding the budget", bytes, c.Bytes())
		}
	}
}

// Bypassed reports whether the next n keys should skip the cache entirely
// (nil cache, or the adaptive-bypass heuristic is in its off period). When
// bypassing it consumes n keys from the off period, so callers check once
// per batch, not per key.
func (c *Cache) Bypassed(n int) bool {
	if c == nil {
		return true
	}
	if c.bypassLeft <= 0 {
		return false
	}
	c.bypassLeft -= n
	return true
}

func TestNilCacheBypassed(t *testing.T) {
	var c *Cache
	if !c.Bypassed(16) {
		t.Fatal("nil cache must report bypassed")
	}
}

func TestAdaptiveBypassOnUniformTraffic(t *testing.T) {
	c := New(MinBytes)
	const e = 1
	// Drive a full window of guaranteed misses (all-distinct keys into a
	// tiny cache): the window must close below threshold and arm the bypass.
	for i := 0; i < bypassWindow; i++ {
		if c.Bypassed(1) {
			t.Fatalf("bypass armed after only %d probes", i)
		}
		k := keys.Value{Lo: uint64(i), Hi: uint64(i) * 1315423911}
		if _, _, o := c.Get(k, e); o == Hit {
			continue
		}
	}
	if !c.Bypassed(1) {
		t.Fatal("bypass not armed after a zero-hit window")
	}
	// The off period is consumed in key counts and then probing resumes.
	if !c.Bypassed(bypassPeriod) {
		t.Fatal("bypass ended before its period was consumed")
	}
	if c.Bypassed(1) {
		t.Fatal("bypass still armed after its period was consumed")
	}
}

func TestHotTrafficNeverArmsBypass(t *testing.T) {
	c := New(64 << 10)
	const e = 1
	hot := make([]keys.Value, 64)
	for i := range hot {
		hot[i] = keys.Value{Lo: uint64(i)}
	}
	for round := 0; round < 4*bypassWindow/len(hot); round++ {
		for _, k := range hot {
			if c.Bypassed(1) {
				t.Fatal("bypass armed on a pure hot-set trace")
			}
			if _, _, o := c.Get(k, e); o != Hit {
				c.Put(k, e, k.Lo, true)
			}
		}
	}
}

func TestStaleCountsAsWindowHit(t *testing.T) {
	c := New(1 << 20)
	hot := make([]keys.Value, 256)
	for i := range hot {
		hot[i] = keys.Value{Lo: uint64(i)}
	}
	e := uint64(1)
	for _, k := range hot {
		c.Put(k, e, k.Lo, true)
	}
	// Alternate epoch bumps with hot-set sweeps: every probe is stale or a
	// post-refill hit; the bypass must never arm (stale proves locality).
	for round := 0; round < 40; round++ {
		e++
		for _, k := range hot {
			if c.Bypassed(1) {
				t.Fatal("bypass armed under mass invalidation of a hot set")
			}
			if _, _, o := c.Get(k, e); o != Hit {
				c.Put(k, e, k.Lo, true)
			}
		}
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New(64 << 10)
	const e = 1
	k := keys.Value{Lo: 123456789}
	c.Put(k, e, 7, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, o := c.Get(k, e); o != Hit {
			b.Fatal("unexpected miss")
		}
	}
}

func BenchmarkGetMiss(b *testing.B) {
	c := New(64 << 10)
	const e = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Get(keys.Value{Lo: uint64(i), Hi: uint64(i)}, e)
	}
}
