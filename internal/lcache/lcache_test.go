package lcache

import (
	"testing"

	"neurolpm/internal/keys"
)

// TestEpochZeroValueNeverMatchesEmptyEntry: the first live epoch, 1, never
// matches a never-filled (zero) entry.
func TestEpochZeroValueNeverMatchesEmptyEntry(t *testing.T) {
	c := New(minBytes)
	k := keys.Value{} // key 0: worst case for zero-initialized entries
	if _, _, o := c.Get(k, 1); o != miss {
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
	c := New(minBytes)
	k := keys.Value{Lo: 5}
	const e1, e2 = 1, 2
	c.Put(k, e1, 10, true)
	if _, _, o := c.Get(k, e2); o != stale {
		t.Fatalf("post-bump probe = %v, want stale", o)
	}
	c.Put(k, e2, 11, true)
	if a, _, o := c.Get(k, e2); o != Hit || a != 11 {
		t.Fatalf("refilled probe = (%d,%v), want (11,hit)", a, o)
	}
	// A fill stamped with the dead epoch must be dead on arrival.
	c.Put(k, e1, 10, true)
	if _, _, o := c.Get(k, e2); o != stale {
		t.Fatalf("probe after dead-epoch fill = %v, want stale", o)
	}
}

func TestPutPrefersExistingSlot(t *testing.T) {
	c := New(minBytes)
	const e = 1
	k := keys.Value{Lo: 77}
	c.Put(k, e, 1, true)
	c.Put(k, e, 2, true) // update in place, not a second way
	if a, _, o := c.Get(k, e); o != Hit || a != 2 {
		t.Fatalf("Get after double Put = (%d,%v), want (2,hit)", a, o)
	}
}

func TestSetOverflowEvicts(t *testing.T) {
	c := New(minBytes)
	const e = 1
	// ways+1 distinct keys mapping to one set: the last Put must evict one.
	target := hash(keys.Value{Lo: 0}) & c.mask
	var colliding []keys.Value
	for lo := uint64(0); len(colliding) < ways+1; lo++ {
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
	if hits != ways {
		t.Fatalf("after %d fills into one set, %d hits, want exactly %d", ways+1, hits, ways)
	}
}

func TestNewRoundsToPowerOfTwoSets(t *testing.T) {
	for _, bytes := range []int{0, 1, minBytes, minBytes + 1, 48 << 10, 64 << 10, 1 << 20} {
		c := New(bytes)
		sets := len(c.entries) / ways
		if sets&(sets-1) != 0 {
			t.Fatalf("New(%d): %d sets, not a power of two", bytes, sets)
		}
		if size := len(c.entries) * entryBytes; size > bytes && bytes >= minBytes {
			t.Fatalf("New(%d) built %d bytes, exceeding the budget", bytes, size)
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
