package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

func buildUpdatable(t *testing.T, n int, seed int64) (*Updatable, *lpm.RuleSet) {
	t.Helper()
	rs := randomRuleSet(t, 24, n, seed)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	return NewUpdatable(e, 100), rs
}

func TestUpdatableInsertVisibleImmediately(t *testing.T) {
	u, rs := buildUpdatable(t, 100, 30)
	// A very specific rule nested under nothing else: use a full-length
	// prefix unlikely to collide.
	r := lpm.Rule{Prefix: keys.FromUint64(0xABCDEF), Len: 24, Action: 777}
	if rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
		if err := u.Insert(r); err != nil {
			t.Fatal(err)
		}
		got, ok := u.Lookup(r.Prefix)
		if !ok || got != 777 {
			t.Fatalf("pending rule invisible: %d,%v", got, ok)
		}
		if u.PendingInserts() != 1 {
			t.Fatalf("pending = %d", u.PendingInserts())
		}
	}
}

func TestUpdatableLongestWinsAcrossBufferAndEngine(t *testing.T) {
	// Engine rule /8; delta rule /16 nested inside: delta must win inside,
	// engine outside.
	rs, err := lpm.NewRuleSet(24, []lpm.Rule{
		{Prefix: keys.FromUint64(0xAA0000), Len: 8, Action: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdatable(e, 10)
	if err := u.Insert(lpm.Rule{Prefix: keys.FromUint64(0xAABB00), Len: 16, Action: 2}); err != nil {
		t.Fatal(err)
	}
	if got, ok := u.Lookup(keys.FromUint64(0xAABB99)); !ok || got != 2 {
		t.Fatalf("nested delta rule lost: %d,%v", got, ok)
	}
	if got, ok := u.Lookup(keys.FromUint64(0xAACC00)); !ok || got != 1 {
		t.Fatalf("engine rule lost: %d,%v", got, ok)
	}
	// Reverse nesting: delta /8 under engine /16 region must lose there.
	if err := u.Insert(lpm.Rule{Prefix: keys.FromUint64(0xBB0000), Len: 8, Action: 3}); err != nil {
		t.Fatal(err)
	}
	if got, ok := u.Lookup(keys.FromUint64(0xBB1234)); !ok || got != 3 {
		t.Fatalf("delta-only region: %d,%v", got, ok)
	}
}

func TestUpdatableCapacity(t *testing.T) {
	u, _ := buildUpdatable(t, 50, 31)
	count := 0
	for i := 0; count < 100; i++ {
		r := lpm.Rule{Prefix: keys.FromUint64(uint64(i)), Len: 24, Action: 1}
		err := u.Insert(r)
		if err == nil {
			count++
			continue
		}
		// Either duplicate-with-engine or full; full must only happen at
		// capacity.
		if u.PendingInserts() >= 100 {
			return // expected: buffer full
		}
	}
	if err := u.Insert(lpm.Rule{Prefix: keys.FromUint64(0xFFFFFF), Len: 24, Action: 1}); err == nil {
		t.Fatal("insert beyond capacity succeeded")
	}
}

func TestUpdatableRejectsDuplicates(t *testing.T) {
	u, rs := buildUpdatable(t, 50, 32)
	if err := u.Insert(rs.Rules[0]); err == nil {
		t.Fatal("duplicate of installed rule accepted")
	}
	fresh := lpm.Rule{Prefix: keys.FromUint64(0x123456), Len: 24, Action: 9}
	if rs.Find(fresh.Prefix, fresh.Len) == lpm.NoMatch {
		if err := u.Insert(fresh); err != nil {
			t.Fatal(err)
		}
		if err := u.Insert(fresh); err == nil {
			t.Fatal("duplicate pending rule accepted")
		}
	}
}

func TestUpdatableCommit(t *testing.T) {
	u, rs := buildUpdatable(t, 80, 33)
	var added []lpm.Rule
	for i := 0; len(added) < 20; i++ {
		r := lpm.Rule{Prefix: keys.FromUint64(uint64(i) << 8), Len: 16, Action: uint64(100 + i)}
		if rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
			continue
		}
		if err := u.Insert(r); err != nil {
			continue
		}
		added = append(added, r)
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	if u.PendingInserts() != 0 {
		t.Fatalf("pending after commit = %d", u.PendingInserts())
	}
	// Everything still answers correctly: compare against an oracle over
	// the merged set.
	merged := append(append([]lpm.Rule(nil), rs.Rules...), added...)
	mergedSet, err := lpm.NewRuleSet(24, merged)
	if err != nil {
		t.Fatal(err)
	}
	oracle := lpm.NewTrieMatcher(mergedSet)
	rng := rand.New(rand.NewSource(34))
	for q := 0; q < 3000; q++ {
		k := keys.FromUint64(uint64(rng.Intn(1 << 24)))
		got, gotOK := u.Lookup(k)
		want, wantOK := oracle.Lookup(k)
		if gotOK != wantOK || (gotOK && got != want) {
			t.Fatalf("key %v: updatable (%d,%v), oracle (%d,%v)", k, got, gotOK, want, wantOK)
		}
	}
	if err := u.Engine().Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatableModifyAndDeletePending(t *testing.T) {
	u, rs := buildUpdatable(t, 50, 35)
	r := lpm.Rule{Prefix: keys.FromUint64(0x424200), Len: 16, Action: 1}
	if rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
		if err := u.Insert(r); err != nil {
			t.Fatal(err)
		}
		if err := u.ModifyAction(r.Prefix, r.Len, 2); err != nil {
			t.Fatal(err)
		}
		if got, _ := u.Lookup(r.Prefix); got != 2 {
			t.Fatalf("pending modify lost: %d", got)
		}
		if err := u.Delete(r.Prefix, r.Len); err != nil {
			t.Fatal(err)
		}
		if u.PendingInserts() != 0 {
			t.Fatal("pending delete did not drain")
		}
	}
	// Delete of an installed rule routes to the engine path.
	installed := rs.Rules[0]
	if err := u.Delete(installed.Prefix, installed.Len); err != nil {
		t.Fatal(err)
	}
}

func TestUpdatableConcurrentLookupsDuringCommit(t *testing.T) {
	u, rs := buildUpdatable(t, 150, 36)
	for i := 0; i < 10; i++ {
		r := lpm.Rule{Prefix: keys.FromUint64(uint64(0xF00000 + i)), Len: 24, Action: uint64(i)}
		if rs.Find(r.Prefix, r.Len) == lpm.NoMatch {
			if err := u.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u.Lookup(keys.FromUint64(uint64(rng.Intn(1 << 24))))
			}
		}(int64(w))
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}

// TestOverlayNeverForgetsCommittedInsert: a rule whose Insert returned before
// a read began must be in that read's answer, whichever side of a concurrent
// Commit the read lands on. The writer cycles insert → commit → delete and
// stamps a generation around the span in which the rule is installed (odd);
// a reader whose Lookup began and ended inside one odd generation and missed
// has seen the old engine beside the already-drained buffer. One core cannot
// produce the interleaving — `make race` runs this at -cpu 1,2,4.
func TestOverlayNeverForgetsCommittedInsert(t *testing.T) {
	const cycles = 400
	rs := randomRuleSet(t, 16, 24, 77)
	probe := lpm.Rule{Prefix: keys.FromUint64(0xBEEF), Len: 16, Action: 4242}
	if rs.Find(probe.Prefix, probe.Len) != lpm.NoMatch {
		t.Fatal("probe rule collides with the base rule-set")
	}
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdatable(e, 100)

	var gen, forgot, reads atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				g := gen.Load()
				a, ok := u.Lookup(probe.Prefix)
				if g&1 == 1 && gen.Load() == g && (!ok || a != probe.Action) {
					forgot.Add(1)
				}
				reads.Add(1)
			}
		}()
	}
	for c := 0; c < cycles; c++ {
		if err := u.Insert(probe); err != nil {
			t.Fatal(err)
		}
		gen.Add(1) // odd: installed from here on
		if err := u.Commit(); err != nil {
			t.Fatal(err)
		}
		gen.Add(1) // even: the delete below may already be visible
		if err := u.Delete(probe.Prefix, probe.Len); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if n := forgot.Load(); n != 0 {
		t.Fatalf("%d of %d reads, over %d insert→commit→delete cycles, missed a rule inserted before they began", n, reads.Load(), cycles)
	}
}
