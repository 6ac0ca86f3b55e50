package fault

import (
	"errors"
	"testing"
	"time"
)

func TestFailNextConsumedExactly(t *testing.T) {
	in := NewInjector(1)
	in.FailNext(SiteRetrain, 2)
	for i := 0; i < 2; i++ {
		if err := in.Fire(SiteRetrain); !errors.Is(err, ErrInjected) {
			t.Fatalf("fire %d: want injected failure, got %v", i, err)
		}
	}
	if err := in.Fire(SiteRetrain); err != nil {
		t.Fatalf("armed count exhausted but fire still fails: %v", err)
	}
	fired, failed := in.Fired(SiteRetrain)
	if fired != 3 || failed != 2 {
		t.Fatalf("counters fired=%d failed=%d, want 3/2", fired, failed)
	}
}

func TestSitesAreIndependent(t *testing.T) {
	in := NewInjector(1)
	in.FailNext(SiteRetrain, 1)
	if err := in.Fire(SiteSwap); err != nil {
		t.Fatalf("arming retrain must not fail swap: %v", err)
	}
	if err := in.Fire(SiteCompact); err != nil {
		t.Fatalf("arming retrain must not fail compact: %v", err)
	}
	if err := in.Fire(SiteRetrain); err == nil {
		t.Fatal("armed retrain fire did not fail")
	}
}

// TestProbDeterministic: same seed + same fire order ⇒ identical decisions.
func TestProbDeterministic(t *testing.T) {
	run := func(seed uint64) []bool {
		in := NewInjector(seed)
		in.FailProb(SiteRetrain, 0.5)
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.Fire(SiteRetrain) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d diverged across same-seed injectors", i)
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed 42 and 43 produced identical 64-fire streams (suspicious)")
	}
}

func TestProbExtremes(t *testing.T) {
	in := NewInjector(7)
	in.FailProb(SiteRetrain, 1)
	for i := 0; i < 32; i++ {
		if in.Fire(SiteRetrain) == nil {
			t.Fatal("p=1 fire succeeded")
		}
	}
	in.FailProb(SiteRetrain, 0)
	for i := 0; i < 32; i++ {
		if err := in.Fire(SiteRetrain); err != nil {
			t.Fatalf("p=0 fire failed: %v", err)
		}
	}
}

func TestClearDisarms(t *testing.T) {
	in := NewInjector(1)
	in.FailNext(SiteSwap, 10)
	in.FailProb(SiteSwap, 1)
	in.SetLatency(SiteSwap, time.Hour)
	in.Clear(SiteSwap)
	start := time.Now()
	if err := in.Fire(SiteSwap); err != nil {
		t.Fatalf("cleared site still fails: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cleared site still sleeps")
	}
}

func TestLatencySleeps(t *testing.T) {
	in := NewInjector(1)
	in.SetLatency(SiteRetrain, 20*time.Millisecond)
	start := time.Now()
	if err := in.Fire(SiteRetrain); err != nil {
		t.Fatalf("latency-only site failed: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("fire returned after %v, want ≥ 20ms", d)
	}
}

func TestNilHookShape(t *testing.T) {
	var h Hook
	if h != nil {
		t.Fatal("zero Hook must be nil (the production no-injection case)")
	}
	h = NewInjector(1).Hook()
	if err := h(SiteRetrain); err != nil {
		t.Fatalf("unarmed hook failed: %v", err)
	}
}
