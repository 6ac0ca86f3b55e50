package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// updatable is the test-local holder of a live engine: an atomic pointer that
// publishes what Compact returns after every write, and what Rebuild returns
// on a commit. It has no writer lock — each test here has one writer; the
// lock is the shard's (shard.ShardedUpdatable), and shard's tests pin it.
type updatable struct{ atomic.Pointer[Engine] }

func newUpdatable(e *Engine) *updatable {
	u := &updatable{}
	u.Store(e)
	return u
}

func (u *updatable) Engine() *Engine                    { return u.Load() }
func (u *updatable) Lookup(k keys.Value) (uint64, bool) { return u.Load().Lookup(k) }

// write applies op to the live engine and publishes what its Compact returns.
func (u *updatable) write(op func(e *Engine) error) error {
	e := u.Load()
	err := op(e)
	u.Store(e.Compact())
	return err
}

func (u *updatable) Insert(r lpm.Rule) error {
	return u.write(func(e *Engine) error { return e.Insert(r) })
}

func (u *updatable) Delete(p keys.Value, length int) error {
	return u.write(func(e *Engine) error { return e.Delete(p, length) })
}

func (u *updatable) ModifyAction(p keys.Value, length int, a uint64) error {
	return u.write(func(e *Engine) error { return e.ModifyAction(p, length, a) })
}

func (u *updatable) Commit() error {
	next, err := u.Load().Rebuild()
	if err == nil {
		u.Store(next)
	}
	return err
}

func buildUpdatable(t *testing.T, n int, seed int64) (*updatable, *lpm.RuleSet) {
	t.Helper()
	rs := randomRuleSet(t, 24, n, seed)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	return newUpdatable(e), rs
}

// TestUpdatableInsertVisibleImmediately: the SRAM-only engine is overgrown
// at its first spill, so the insert lands in place and Compact retrains it in
// — and the engine Insert leaves live answers for it the moment Insert
// returns.
func TestUpdatableInsertVisibleImmediately(t *testing.T) {
	u, rs := buildUpdatable(t, 100, 30)
	// A very specific rule nested under nothing else: use a full-length
	// prefix unlikely to collide.
	r := lpm.Rule{Prefix: keys.FromUint64(0xABCDEF), Len: 24, Action: 777}
	if rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
		t.Fatal("probe rule collides with the base rule-set")
	}
	before := u.Engine()
	if err := u.Insert(r); err != nil {
		t.Fatal(err)
	}
	if u.Engine() == before {
		t.Fatal("an SRAM-only spill returned without swapping in a rebuilt engine")
	}
	if got, ok := u.Engine().Lookup(r.Prefix); !ok || got != 777 {
		t.Fatalf("acknowledged rule not in the live engine: %d,%v", got, ok)
	}
}

func TestUpdatableLongestWinsAfterRebuild(t *testing.T) {
	// Engine rule /8; rebuilt-in rule /16 nested inside: it must win inside,
	// the /8 outside.
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
	u := newUpdatable(e)
	if err := u.Insert(lpm.Rule{Prefix: keys.FromUint64(0xAABB00), Len: 16, Action: 2}); err != nil {
		t.Fatal(err)
	}
	if got, ok := u.Lookup(keys.FromUint64(0xAABB99)); !ok || got != 2 {
		t.Fatalf("nested rule lost: %d,%v", got, ok)
	}
	if got, ok := u.Lookup(keys.FromUint64(0xAACC00)); !ok || got != 1 {
		t.Fatalf("covering rule lost: %d,%v", got, ok)
	}
	// A /8 of its own beside them answers its region.
	if err := u.Insert(lpm.Rule{Prefix: keys.FromUint64(0xBB0000), Len: 8, Action: 3}); err != nil {
		t.Fatal(err)
	}
	if got, ok := u.Lookup(keys.FromUint64(0xBB1234)); !ok || got != 3 {
		t.Fatalf("new region: %d,%v", got, ok)
	}
	if got, ok := u.Lookup(keys.FromUint64(0xAABB99)); !ok || got != 2 {
		t.Fatalf("nested rule lost across a second rebuild: %d,%v", got, ok)
	}
}

// TestUpdatableCapacity: an updatable engine has no capacity. 150 inserts
// that each overgrow the SRAM-only engine — past the paper's TCAM sizes
// scaled to this rule-set — are each retrained in, and every one of them
// answers afterwards.
func TestUpdatableCapacity(t *testing.T) {
	u, rs := buildUpdatable(t, 50, 31)
	var added []lpm.Rule
	for i := 0; len(added) < 150; i++ {
		r := lpm.Rule{Prefix: keys.FromUint64(uint64(i) << 8), Len: 24, Action: uint64(1000 + i)}
		if rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
			continue
		}
		if err := u.Insert(r); err != nil {
			t.Fatalf("insert %d: %v", len(added), err)
		}
		added = append(added, r)
	}
	for _, r := range added {
		if got, ok := u.Lookup(r.Prefix); !ok || got != r.Action {
			t.Fatalf("rule %v answers (%d,%v)", r, got, ok)
		}
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
			t.Fatal("duplicate of a rebuilt-in rule accepted")
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

// TestUpdatableModifyAndDeleteRebuilt: a rule that was retrained in is an
// ordinary rule of the engine — modify and delete reach it without a rebuild.
func TestUpdatableModifyAndDeleteRebuilt(t *testing.T) {
	u, rs := buildUpdatable(t, 50, 35)
	r := lpm.Rule{Prefix: keys.FromUint64(0x424200), Len: 16, Action: 1}
	if rs.Find(r.Prefix, r.Len) != lpm.NoMatch {
		t.Fatal("probe rule collides with the base rule-set")
	}
	want, wantOK := lpm.NewTrieMatcher(rs).Lookup(r.Prefix)
	if err := u.Insert(r); err != nil {
		t.Fatal(err)
	}
	rebuilt := u.Engine()
	if err := u.ModifyAction(r.Prefix, r.Len, 2); err != nil {
		t.Fatal(err)
	}
	if got, _ := u.Lookup(r.Prefix); got != 2 {
		t.Fatalf("modify of a rebuilt-in rule lost: %d", got)
	}
	if err := u.Delete(r.Prefix, r.Len); err != nil {
		t.Fatal(err)
	}
	if got, ok := u.Lookup(r.Prefix); ok != wantOK || got != want {
		t.Fatalf("after delete: (%d,%v), want the base answer (%d,%v)", got, ok, want, wantOK)
	}
	if u.Engine() != rebuilt {
		t.Fatal("modify or delete rebuilt the engine")
	}
	// Delete of a built rule takes the same path.
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
