package core

import (
	"errors"
	"testing"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// buildFaulty builds an Updatable whose engine carries a fault injector.
func buildFaulty(t *testing.T, capacity int) (*Updatable, *lpm.RuleSet, *fault.Injector) {
	t.Helper()
	rs := randomRuleSet(t, 24, 80, 91)
	in := fault.NewInjector(1)
	cfg := quickSRAMOnly()
	cfg.Fault = in.Hook()
	e, err := Build(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewUpdatable(e, capacity), rs, in
}

// freeRule24 returns a /24 rule absent from rs.
func freeRule24(t *testing.T, rs *lpm.RuleSet, action uint64) lpm.Rule {
	t.Helper()
	for p := uint64(0); p < 1<<16; p++ {
		prefix := keys.FromUint64(p * 2654435761 % (1 << 24))
		if rs.Find(prefix, 24) == lpm.NoMatch {
			return lpm.Rule{Prefix: prefix, Len: 24, Action: action}
		}
	}
	t.Fatal("no free rule")
	return lpm.Rule{}
}

// TestCommitFailureLeavesDeltaAndEngineIntact: an injected retrain failure
// must abort the commit with the pending rule still served from the
// overlay and the live engine unchanged; the next (successful) commit
// applies the rule exactly once.
func TestCommitFailureLeavesDeltaAndEngineIntact(t *testing.T) {
	u, rs, in := buildFaulty(t, 100)
	r := freeRule24(t, rs, 4242)
	if err := u.Insert(r); err != nil {
		t.Fatal(err)
	}
	before := u.Engine()

	in.FailNext(fault.SiteRetrain, 1)
	err := u.Commit()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit under injected retrain failure: err = %v", err)
	}
	if u.Engine() != before {
		t.Fatal("failed commit swapped the engine")
	}
	if u.PendingInserts() != 1 {
		t.Fatalf("failed commit drained the delta buffer: pending = %d", u.PendingInserts())
	}
	if got, ok := u.Lookup(r.Prefix); !ok || got != r.Action {
		t.Fatalf("pending rule lost after failed commit: (%d,%v)", got, ok)
	}

	// Injector exhausted: the retry succeeds and applies the rule once.
	if err := u.Commit(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	if u.PendingInserts() != 0 {
		t.Fatalf("pending after successful commit: %d", u.PendingInserts())
	}
	if got, ok := u.Engine().Lookup(r.Prefix); !ok || got != r.Action {
		t.Fatalf("committed rule missing from engine: (%d,%v)", got, ok)
	}
}

// TestSwapFailureDiscardsNewEngine: a failure injected between retrain and
// swap aborts the commit without tearing — old engine stays live, delta
// stays pending.
func TestSwapFailureDiscardsNewEngine(t *testing.T) {
	u, rs, in := buildFaulty(t, 100)
	r := freeRule24(t, rs, 777)
	if err := u.Insert(r); err != nil {
		t.Fatal(err)
	}
	before := u.Engine()
	in.FailNext(fault.SiteSwap, 1)
	if err := u.Commit(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit under injected swap failure: err = %v", err)
	}
	if u.Engine() != before || u.PendingInserts() != 1 {
		t.Fatal("swap failure tore the commit")
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	if u.PendingInserts() != 0 {
		t.Fatal("retry did not drain the delta")
	}
}

// TestInjectedDeltaExhaustionIsErrDeltaFull: both the real capacity limit
// and the injected exhaustion fault surface as ErrDeltaFull.
func TestInjectedDeltaExhaustionIsErrDeltaFull(t *testing.T) {
	// Real capacity overflow.
	u, rs, _ := buildFaulty(t, 1)
	a := freeRule24(t, rs, 1)
	if err := u.Insert(a); err != nil {
		t.Fatal(err)
	}
	b := freeRule24(t, rs, 2)
	if b.Prefix == a.Prefix {
		b.Prefix = b.Prefix.Xor(keys.FromUint64(1 << 8))
	}
	if err := u.Insert(b); !errors.Is(err, ErrDeltaFull) {
		t.Fatalf("capacity overflow: err = %v, want ErrDeltaFull", err)
	}

	// Injected exhaustion on an otherwise-roomy buffer.
	u2, rs2, in2 := buildFaulty(t, 100)
	in2.FailNext(fault.SiteDeltaFull, 1)
	if err := u2.Insert(freeRule24(t, rs2, 3)); !errors.Is(err, ErrDeltaFull) {
		t.Fatalf("injected exhaustion: err = %v, want ErrDeltaFull", err)
	}
	if err := u2.Insert(freeRule24(t, rs2, 3)); err != nil {
		t.Fatalf("insert after injector disarmed: %v", err)
	}
}
