package workload

import (
	"testing"
	"time"

	"neurolpm/internal/lpm"
)

func updatesTestRuleSet(t *testing.T) *lpm.RuleSet {
	t.Helper()
	rs, err := Generate(Profiles()["ripe"], 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func TestGenerateUpdatesDeterministicAndApplicable(t *testing.T) {
	rs := updatesTestRuleSet(t)
	cfg := UpdateConfig{Count: 500, Rate: 1000, Sites: 64, ActionBase: 1 << 30, Seed: 11}
	a, err := GenerateUpdates(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateUpdates(rs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Updates) != 500 || len(a.Sites) != 64 {
		t.Fatalf("stream shape %d updates / %d sites", len(a.Updates), len(a.Sites))
	}
	for i := range a.Updates {
		if a.Updates[i] != b.Updates[i] {
			t.Fatalf("update %d differs between identically-seeded streams", i)
		}
	}

	// Applicable in order: inserts only on absent sites, deletes/modifies
	// only on present ones; every rule full-width at a fresh site.
	live := map[string]bool{}
	var prev time.Duration
	for i, u := range a.Updates {
		if u.Rule.Len != rs.Width {
			t.Fatalf("update %d length %d, want full width %d", i, u.Rule.Len, rs.Width)
		}
		if rs.Find(u.Rule.Prefix, rs.Width) != lpm.NoMatch {
			t.Fatalf("update %d site collides with a base rule", i)
		}
		id := u.Rule.Prefix.String()
		switch u.Op {
		case UpdateInsert:
			if live[id] {
				t.Fatalf("update %d inserts an already-present site", i)
			}
			live[id] = true
		case UpdateDelete:
			if !live[id] {
				t.Fatalf("update %d deletes an absent site", i)
			}
			delete(live, id)
		case UpdateModify:
			if !live[id] {
				t.Fatalf("update %d modifies an absent site", i)
			}
		}
		if u.At < prev {
			t.Fatalf("update %d scheduled at %v before predecessor %v", i, u.At, prev)
		}
		prev = u.At
	}

	// Poisson pacing: mean inter-arrival ≈ 1/rate (loose 3× bounds).
	mean := a.Updates[len(a.Updates)-1].At / time.Duration(len(a.Updates))
	if mean < 300*time.Microsecond || mean > 3*time.Millisecond {
		t.Fatalf("mean inter-arrival %v for 1000/s, want ≈1ms", mean)
	}
}
