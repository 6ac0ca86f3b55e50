package core

import (
	"errors"
	"math/rand"
	"testing"

	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// buildFaulty builds an Updatable over cfg whose engine carries a fault
// injector.
func buildFaulty(t *testing.T, cfg Config) (*Updatable, *lpm.RuleSet, *fault.Injector) {
	t.Helper()
	rs := randomRuleSet(t, 24, 80, 91)
	in := fault.NewInjector(1)
	cfg.Fault = in.Hook()
	e, err := Build(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return NewUpdatable(e), rs, in
}

// freeRule24 returns a /24 rule absent from rs.
func freeRule24(t *testing.T, rs *lpm.RuleSet, action uint64) lpm.Rule {
	t.Helper()
	return freeRules24(t, rs, 1, action)[0]
}

// freeRules24 returns n distinct /24 rules absent from rs, actions from
// action up.
func freeRules24(t *testing.T, rs *lpm.RuleSet, n int, action uint64) []lpm.Rule {
	t.Helper()
	var out []lpm.Rule
	for p := uint64(0); p < 1<<16 && len(out) < n; p++ {
		prefix := keys.FromUint64(p * 2654435761 % (1 << 24))
		if rs.Find(prefix, 24) == lpm.NoMatch {
			out = append(out, lpm.Rule{Prefix: prefix, Len: 24, Action: action + uint64(len(out))})
		}
	}
	if len(out) < n {
		t.Fatal("no free rule")
	}
	return out
}

// TestCommitFailureLeavesEngineIntact: an injected retrain failure must abort
// the commit with the live engine unchanged and the inserted rule still
// answered; the next (successful) commit carries the rule into the rebuilt
// engine exactly once.
func TestCommitFailureLeavesEngineIntact(t *testing.T) {
	u, rs, in := buildFaulty(t, quickBucketed())
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
	if got, ok := u.Lookup(r.Prefix); !ok || got != r.Action {
		t.Fatalf("rule lost after failed commit: (%d,%v)", got, ok)
	}

	// Injector exhausted: the retry succeeds and carries the rule once.
	if err := u.Commit(); err != nil {
		t.Fatalf("retry commit: %v", err)
	}
	if u.Engine() == before || u.Engine().SpilledBuckets() != 0 {
		t.Fatalf("retry commit did not install a dense engine: %d spilled buckets", u.Engine().SpilledBuckets())
	}
	if got, ok := u.Engine().Lookup(r.Prefix); !ok || got != r.Action {
		t.Fatalf("committed rule missing from engine: (%d,%v)", got, ok)
	}
}

// TestSwapFailureDiscardsNewEngine: a failure injected between retrain and
// swap aborts the commit without tearing — the old engine stays live.
func TestSwapFailureDiscardsNewEngine(t *testing.T) {
	u, rs, in := buildFaulty(t, quickSRAMOnly())
	r := freeRule24(t, rs, 777)
	if err := u.Insert(r); err != nil {
		t.Fatal(err)
	}
	before := u.Engine()
	in.FailNext(fault.SiteSwap, 1)
	if err := u.Commit(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("commit under injected swap failure: err = %v", err)
	}
	if u.Engine() != before {
		t.Fatal("swap failure tore the commit")
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, ok := u.Lookup(r.Prefix); u.Engine() == before || !ok || got != r.Action {
		t.Fatalf("retry commit: rule answers (%d,%v)", got, ok)
	}
}

// TestFailedRebuildRollsBack: an insert the engine refuses (fault.SiteAbsorb)
// whose rebuild then fails — at the retrain, and separately at the swap —
// returns the injected error and leaves everything as it was: the same engine
// pointer, the same spilled buckets, and the same answer for every key of a
// trace that covers the rule. With the injected failure spent, the same
// insert — still refused — is retrained in.
func TestFailedRebuildRollsBack(t *testing.T) {
	for _, site := range []fault.Site{fault.SiteRetrain, fault.SiteSwap} {
		t.Run(string(site), func(t *testing.T) {
			u, rs, in := buildFaulty(t, quickBucketed())
			free := freeRules24(t, rs, 5, 4242)
			// Absorbed inserts first, so there are spill records to keep.
			for _, a := range free[1:] {
				if err := u.Insert(a); err != nil {
					t.Fatal(err)
				}
			}
			spilled := u.Engine().SpilledBuckets()
			if spilled == 0 {
				t.Fatal("absorbed inserts left no spill record")
			}
			r := free[0]
			rng := rand.New(rand.NewSource(92))
			trace := []keys.Value{r.Prefix, r.Prefix.AddUint64(255), r.Prefix.AddUint64(256)}
			for len(trace) < 2000 {
				trace = append(trace, keys.FromUint64(uint64(rng.Intn(1<<24))))
			}
			answers := func() []BatchResult {
				out := make([]BatchResult, len(trace))
				for i, k := range trace {
					out[i].Action, out[i].Matched = u.Lookup(k)
				}
				return out
			}
			before, want := u.Engine(), answers()

			in.FailProb(fault.SiteAbsorb, 1)
			in.FailNext(site, 1)
			if err := u.Insert(r); !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("refused insert under an injected %s failure: err = %v", site, err)
			}
			if u.Engine() != before {
				t.Fatal("a failed rebuild installed an engine")
			}
			if got := u.Engine().SpilledBuckets(); got != spilled {
				t.Fatalf("spilled buckets %d after a failed rebuild, want %d", got, spilled)
			}
			for i, got := range answers() {
				if got != want[i] {
					t.Fatalf("key %v answers %+v after a failed rebuild, %+v before", trace[i], got, want[i])
				}
			}

			if err := u.Insert(r); err != nil { // still refused, now rebuilt
				t.Fatalf("insert with the %s fault spent: %v", site, err)
			}
			if got, ok := u.Lookup(r.Prefix); u.Engine() == before || !ok || got != r.Action {
				t.Fatalf("rebuilt-in rule answers (%d,%v)", got, ok)
			}
		})
	}
}
