package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// wideRuleSet returns n random rules (/12 and longer, so they cannot tile the
// domain) of any width from 32 to 128 plus `wide`, a /1 rule over the lower
// half of the domain: random rules nest inside it, so the ranges it owns are
// scattered across many buckets.
func wideRuleSet(t testing.TB, width, n int, seed int64, extra ...lpm.Rule) (rs *lpm.RuleSet, wide lpm.Rule) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	wide = lpm.Rule{Len: 1, Action: 1 << 50}
	rules := append([]lpm.Rule{wide}, extra...)
	seen := map[lpm.Rule]bool{}
	for len(rules) < n+1+len(extra) {
		length := 12 + rng.Intn(width-11)
		p := keys.FromParts(rng.Uint64(), rng.Uint64()).Shr(uint(128 - width))
		p = p.Shr(uint(width - length)).Shl(uint(width - length))
		id := lpm.Rule{Prefix: p, Len: length}
		if seen[id] {
			continue
		}
		seen[id] = true
		rules = append(rules, lpm.Rule{Prefix: p, Len: length, Action: rng.Uint64()})
	}
	rs, err := lpm.NewRuleSet(width, rules)
	if err != nil {
		t.Fatal(err)
	}
	return rs, wide
}

// TestRecordConsistency drives a seeded random Delete/ModifyAction sequence
// over every engine kind and holds three views of every range equal after
// each step: the record (what lookups answer from), an independent trie over
// the surviving rules, and the owner table (RuleOf + Array.Action, the path
// benchmark/trace.go replays).
func TestRecordConsistency(t *testing.T) {
	for _, width := range []int{32, 64, 128} {
		for _, k := range []int{0, 2, 8, 64} { // 0 = SRAM-only
			t.Run(fmt.Sprintf("width%d/k%d", width, k), func(t *testing.T) {
				var (
					rs   *lpm.RuleSet
					wide lpm.Rule
					e    *Engine
				)
				for seed := int64(1); ; seed++ { // first seed that leaves a partial last bucket
					rs, wide = wideRuleSet(t, width, 300, seed)
					var err error
					if e, err = Build(rs, Config{BucketSize: k, Model: quickModel()}); err != nil {
						t.Fatal(err)
					}
					if k == 0 || e.ra.Len()%k != 0 {
						break
					}
				}
				wideIdx := rs.Find(wide.Prefix, wide.Len)
				if k != 0 {
					first, last := e.ra.Len(), -1
					e.owned(wideIdx, func(i int) { first, last = min(first, i), max(last, i) })
					if last/k-first/k < 3 {
						t.Fatalf("wide rule's ranges span buckets %d..%d; want it to cross many", first/k, last/k)
					}
				}

				trie := lpm.NewTrie(rs)
				dead := make([]bool, rs.Len())
				action := make([]uint64, rs.Len())
				for i, r := range rs.Rules {
					action[i] = r.Action
				}
				check := func(step int) {
					t.Helper()
					for i := range e.ra.Entries {
						low := e.ra.Entries[i].Low
						o := trie.LookupWhere(low, func(r int32) bool { return !dead[r] })
						var want uint64
						wantOK := o != lpm.NoMatch
						if wantOK {
							want = action[o]
						}
						if got, ok := e.resolve(i); ok != wantOK || got != want {
							t.Fatalf("step %d range %d: record (%d,%v), trie (%d,%v)", step, i, got, ok, want, wantOK)
						}
						if got, ok := e.ra.Action(i); ok != wantOK || (ok && got != want) || (ok && int(e.ra.RuleOf(i)) != o) {
							t.Fatalf("step %d range %d: owner table (%d,%v) rule %d, trie (%d,%v) rule %d",
								step, i, got, ok, e.ra.RuleOf(i), want, wantOK, o)
						}
						for _, key := range []keys.Value{low, e.ra.High(i)} { // scan + resolve, both ends of the range
							if got, ok := e.Lookup(key); ok != wantOK || got != want {
								t.Fatalf("step %d key %v: Lookup (%d,%v), trie (%d,%v)", step, key, got, ok, want, wantOK)
							}
						}
					}
				}
				check(-1)

				rng := rand.New(rand.NewSource(int64(width*100 + k)))
				edge := []uint64{0, ^uint64(0)} // Action is any 64-bit value
				for step := 0; step < 120; step++ {
					idx := rng.Intn(rs.Len())
					switch step {
					case 10, 40:
						idx = wideIdx // modify it, later delete it
					}
					r := rs.Rules[idx]
					if dead[idx] {
						if e.Delete(r.Prefix, r.Len) == nil || e.ModifyAction(r.Prefix, r.Len, 1) == nil {
							t.Fatalf("step %d: update of deleted rule %v succeeded", step, r)
						}
						continue
					}
					if step == 40 || (step != 10 && rng.Intn(2) == 0) {
						if err := e.Delete(r.Prefix, r.Len); err != nil {
							t.Fatal(err)
						}
						dead[idx] = true
					} else {
						a := rng.Uint64()
						if step%8 < len(edge) {
							a = edge[step%8]
						}
						if err := e.ModifyAction(r.Prefix, r.Len, a); err != nil {
							t.Fatal(err)
						}
						action[idx] = a
					}
					check(step)
				}
			})
		}
	}
}

// TestDeletePublicationOrder runs readers against Delete. A key in a range the
// doomed rule owns may answer the doomed action or the covering rule's, and
// nothing else — in particular never a miss, which is what a tombstone
// published before the re-own (or before the first delete's trie build)
// yields. Keys under rules nested in the doomed one never change. The first
// Delete builds the trie over 20 000 rules, milliseconds during which a
// reader on a second core is certain to look; a 1-core run can only confirm
// the answers it happens to interleave.
func TestDeletePublicationOrder(t *testing.T) {
	cover := lpm.Rule{Len: 0, Action: 7}
	rs, doomed := wideRuleSet(t, 32, 20000, 5, cover)
	for _, cfg := range []Config{quickBucketed(), quickSRAMOnly()} {
		e, err := Build(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		idx := rs.Find(doomed.Prefix, doomed.Len)
		type probe struct {
			key    keys.Value
			steady bool // under a nested rule: the delete must not move it
			want   uint64
		}
		var probes []probe
		for i := 0; i < e.ra.Len() && len(probes) < 512; i += 7 {
			if low := e.ra.Entries[i].Low; doomed.Matches(32, low) {
				a, _ := e.ra.Action(i)
				probes = append(probes, probe{low, int(e.ra.RuleOf(i)) != idx, a})
			}
		}

		var stop atomic.Bool
		var reads, bad atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					for _, p := range probes {
						a, ok := e.Lookup(p.key)
						legal := ok && (a == p.want || (!p.steady && a == cover.Action))
						if !legal && bad.Add(1) == 1 {
							t.Errorf("key %v answered (%d,%v) during delete; legal: %d or cover %d (steady %v)",
								p.key, a, ok, p.want, cover.Action, p.steady)
						}
					}
					reads.Add(1)
				}
			}()
		}
		for reads.Load() == 0 { // readers are up before the writer starts
			runtime.Gosched()
		}
		before := reads.Load()
		if err := e.Delete(doomed.Prefix, doomed.Len); err != nil {
			t.Fatal(err)
		}
		during := reads.Load() - before
		stop.Store(true)
		wg.Wait()
		if n := bad.Load(); n != 0 {
			t.Fatalf("%d illegal answers during delete", n)
		}
		if runtime.GOMAXPROCS(0) > 1 && during == 0 {
			t.Errorf("no reader pass completed during the delete; the test saw nothing")
		}
		for _, p := range probes { // and the delete landed
			want := p.want
			if !p.steady {
				want = cover.Action
			}
			if a, ok := e.Lookup(p.key); !ok || a != want {
				t.Fatalf("key %v after delete: (%d,%v), want (%d,true)", p.key, a, ok, want)
			}
		}
	}
}
