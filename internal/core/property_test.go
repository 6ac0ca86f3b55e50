package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// TestPropertyEngineEqualsOracle drives testing/quick over randomly shaped
// rule-sets (width, count, seed all fuzzed) and asserts exact agreement
// with the trie oracle on boundary-adjacent keys — the strongest end-to-end
// invariant the paper claims ("RQRMI lookups are precise").
func TestPropertyEngineEqualsOracle(t *testing.T) {
	cfgSRAM := quickSRAMOnly()
	cfgBucket := quickBucketed()
	prop := func(seed int64, widthSel, sizeSel uint8, bucketized bool) bool {
		widths := []int{8, 16, 24, 32}
		width := widths[int(widthSel)%len(widths)]
		n := 20 + int(sizeSel)%200
		maxRules := 1 << (width - 2)
		if n > maxRules {
			n = maxRules
		}
		rs := randomRuleSet(t, width, n, seed)
		cfg := cfgSRAM
		if bucketized {
			cfg = cfgBucket
		}
		e, err := Build(rs, cfg)
		if err != nil {
			t.Logf("build failed: %v", err)
			return false
		}
		oracle := lpm.NewTrieMatcher(rs)
		check := func(k keys.Value) bool {
			got, gotOK := e.Lookup(k)
			want, wantOK := oracle.Lookup(k)
			return gotOK == wantOK && (!gotOK || got == want)
		}
		for _, r := range rs.Rules {
			lo, hi := r.Low(width), r.High(width)
			if !check(lo) || !check(hi) {
				return false
			}
			if !lo.IsZero() && !check(lo.Dec()) {
				return false
			}
			if hi != keys.MaxValue(width) && !check(hi.Inc()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyUpdatesPreserveExactness applies a random interleaving of
// deletions and action modifications and checks the engine still agrees
// with an oracle over the surviving rules.
func TestPropertyUpdatesPreserveExactness(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomRuleSet(t, 20, 120, seed)
		e, err := Build(rs, quickSRAMOnly())
		if err != nil {
			return false
		}
		live := map[int]uint64{}
		for i, r := range rs.Rules {
			live[i] = r.Action
		}
		for op := 0; op < 40; op++ {
			i := rng.Intn(rs.Len())
			r := rs.Rules[i]
			if _, alive := live[i]; !alive {
				continue
			}
			if rng.Intn(2) == 0 {
				if err := e.Delete(r.Prefix, r.Len); err != nil {
					return false
				}
				delete(live, i)
			} else {
				a := uint64(rng.Intn(1000))
				if err := e.ModifyAction(r.Prefix, r.Len, a); err != nil {
					return false
				}
				live[i] = a
			}
		}
		var survivors []lpm.Rule
		for i, a := range live {
			r := rs.Rules[i]
			r.Action = a
			survivors = append(survivors, r)
		}
		surSet, err := lpm.NewRuleSet(20, survivors)
		if err != nil {
			return false
		}
		oracle := lpm.NewTrieMatcher(surSet)
		for q := 0; q < 800; q++ {
			k := keys.FromUint64(uint64(rng.Intn(1 << 20)))
			got, gotOK := e.Lookup(k)
			want, wantOK := oracle.Lookup(k)
			if gotOK != wantOK || (gotOK && got != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySRAMAccountingConsistent: totals always itemize, directory
// always compresses, DRAM footprint only exists when bucketized.
func TestPropertySRAMAccountingConsistent(t *testing.T) {
	prop := func(seed int64, bucketSel uint8) bool {
		rs := randomRuleSet(t, 24, 150, seed)
		sizes := []int{0, 2, 4, 8, 16}
		bs := sizes[int(bucketSel)%len(sizes)]
		cfg := quickSRAMOnly()
		cfg.BucketSize = bs
		e, err := Build(rs, cfg)
		if err != nil {
			return false
		}
		u := e.SRAMUsage()
		if u.Total != u.Model+u.RQArray {
			return false
		}
		if bs >= 2 {
			return e.dir != nil && e.DRAMFootprint() > 0 && u.RQArray < e.Ranges().SizeBytes()
		}
		return e.dir == nil && e.DRAMFootprint() == 0 && u.RQArray == e.Ranges().SizeBytes()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
