package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/ranges"
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

// TestRecordConsistency drives a seeded Insert/Delete/ModifyAction sequence
// over every engine kind and holds the views of every range — a spilled
// bucket's own ranges included — equal after each step: the record (what
// lookups answer from), the owner table (range array, or the spill record's
// tables), an independent trie over the installed rules, and every lookup arm
// at both ends of the range. The insert steps are the cases an in-place
// insert has: a fresh rule, a deleted rule re-inserted, a fresh rule whose
// bounds already exist, rules spanning many buckets with and without new
// bounds, and one bucket hit until it holds maxSpillRanges and then passes it.
// Every engine kind takes every insert in place, and is overgrown exactly
// when a bucket has passed maxSpillRanges or, SRAM-only, has spilled at all:
// K = 64 at its first spill, K = 0 one spill before its fill begins. The
// Compact that follows folds everything back.
func TestRecordConsistency(t *testing.T) {
	for _, width := range []int{32, 64, 128} {
		for _, k := range []int{0, 2, 8, 48, 64} { // 0 = SRAM-only
			t.Run(fmt.Sprintf("width%d/k%d", width, k), func(t *testing.T) {
				// nestA ⊃ nestB leave the upper half of nestA a range of its
				// own: a fresh rule there finds both of its bounds in place.
				top := keys.FromUint64(0xA5).Shl(uint(width - 8))
				nestA := lpm.Rule{Prefix: top, Len: 8, Action: 81}
				nestB := lpm.Rule{Prefix: top, Len: 9, Action: 82}
				var (
					rs   *lpm.RuleSet
					wide lpm.Rule
					e    *Engine
				)
				for seed := int64(1); ; seed++ { // first seed that leaves a partial last bucket
					rs, wide = wideRuleSet(t, width, 300, seed, nestA, nestB)
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
					e.owned(wideIdx, func(w wbucket, j int) { first, last = min(first, w.base+j), max(last, w.base+j) })
					if last/k-first/k < 3 {
						t.Fatalf("wide rule's ranges span buckets %d..%d; want it to cross many", first/k, last/k)
					}
				}

				// all is every rule the engine ever held, live says which are
				// installed now: the model the independent trie is built from.
				all := append([]lpm.Rule(nil), rs.Rules...)
				live := make([]bool, len(all))
				for i := range live {
					live[i] = true
				}
				var batch []keys.Value
				var wants []BatchResult
				arms := []func(keys.Value) (uint64, bool){e.Lookup, e.reference}
				// check holds every view of every range equal; after an
				// insert (and at build) on every lookup arm, after a delete or
				// a modify — which move no bound — on Lookup alone.
				check := func(step any, allArms bool) {
					t.Helper()
					var installed []lpm.Rule
					for i, r := range all {
						if live[i] {
							installed = append(installed, r)
						}
					}
					set, err := lpm.NewRuleSet(width, installed)
					if err != nil {
						t.Fatal(err)
					}
					batch, wants = batch[:0], wants[:0]
					buckets := (e.rec.nr + e.rec.k - 1) / e.rec.k
					// The action table stays far below its limit here, so
					// only the buckets make the engine overgrown.
					past := k == 0 && e.SpilledBuckets() > 0
					for b := 0; b < buckets; b++ {
						w := e.bucketW(b)
						if w.spilled != (w.n > min(e.rec.k, e.rec.nr-w.base)) {
							t.Fatalf("step %v bucket %d: %d ranges, spilled %v", step, b, w.n, w.spilled)
						}
						if w.spilled && (w.l.k != w.n || len(w.rec) != w.l.stride+w.n) {
							t.Fatalf("step %v bucket %d: %d ranges in a record of capacity %d, %d words", step, b, w.n, w.l.k, len(w.rec))
						}
						past = past || w.n > maxSpillRanges
						for j := 0; j < w.n; j++ {
							low, high := w.low(j), keys.MaxValue(width)
							switch {
							case j+1 < w.n:
								high = w.low(j + 1).Dec()
							case b+1 < buckets:
								high = e.bucketW(b + 1).low(0).Dec()
							}
							var want BatchResult
							o := longestMatch(set, low)
							if o != lpm.NoMatch {
								want = BatchResult{Action: set.Rules[o].Action, Matched: true}
							}
							if longestMatch(set, high) != o {
								t.Fatalf("step %v bucket %d range %d [%v,%v]: a rule begins or ends inside it", step, b, j, low, high)
							}
							if got, ok := w.resolve(j); ok != want.Matched || got != want.Action {
								t.Fatalf("step %v bucket %d range %d: record (%d,%v), trie %+v", step, b, j, got, ok, want)
							}
							if own := w.owner(j); (own == ranges.NoRule) != (o == lpm.NoMatch) ||
								(o != lpm.NoMatch && (e.rule(int(own)) != set.Rules[o] || !e.isLive(int(own)))) {
								t.Fatalf("step %v bucket %d range %d: owner table says rule %d, trie %d", step, b, j, own, o)
							}
							if !w.spilled { // the path benchmark/trace.go replays
								if got, ok := e.ra.Action(w.base + j); ok != want.Matched || (ok && got != want.Action) {
									t.Fatalf("step %v range %d: Array.Action (%d,%v), trie %+v", step, w.base+j, got, ok, want)
								}
							}
							// answer's count of bounds is the in-order scan's
							// position and comparison count, on the boundary, a
							// key past it and the last key before the next.
							for _, key := range []keys.Value{low, low.Inc(), high} {
								if (k == 0 && !w.spilled) || key.Less(low) || high.Less(key) {
									continue
								}
								gotJ, gotCmp, _, _, _ := e.rec.answer(b, key)
								wantJ, wantCmp := w.search(key)
								if !w.spilled {
									wantJ, wantCmp = e.dir.Search(b, key)
									wantJ -= w.base
								}
								if wantJ != j || gotJ != wantJ || gotCmp != wantCmp {
									t.Fatalf("step %v bucket %d range %d key %v: answer scans to (%d,%d), the in-order scan to (%d,%d)",
										step, b, j, key, gotJ, gotCmp, wantJ, wantCmp)
								}
							}
							for _, key := range []keys.Value{low, high} { // scan + resolve, both ends of the range
								for arm, lookup := range arms {
									if !allArms && arm > 0 {
										break
									}
									if got, ok := lookup(key); ok != want.Matched || got != want.Action {
										t.Fatalf("step %v key %v arm %d: (%d,%v), trie %+v", step, key, arm, got, ok, want)
									}
								}
								batch, wants = append(batch, key), append(wants, want)
							}
						}
					}
					if e.rec.overgrown() != past {
						t.Fatalf("step %v: overgrown %v, want %v", step, e.rec.overgrown(), past)
					}
					if !allArms {
						return
					}
					for i, got := range e.LookupBatch(batch, nil) {
						if got != wants[i] {
							t.Fatalf("step %v key %v: LookupBatch %+v, trie %+v", step, batch[i], got, wants[i])
						}
					}
				}
				check("build", true)

				// insert installs r in place and checks every view.
				insert := func(step any, r lpm.Rule) {
					t.Helper()
					if err := e.Insert(r); err != nil {
						t.Fatalf("step %v: Insert(%v): %v", step, r, err)
					}
					i := slices.IndexFunc(all, func(a lpm.Rule) bool { return a.Prefix == r.Prefix && a.Len == r.Len })
					if i < 0 {
						i, all, live = len(all), append(all, r), append(live, false)
					}
					all[i], live[i] = r, true
					check(step, true)
				}

				rng := rand.New(rand.NewSource(int64(width*100 + k)))
				edge := []uint64{0, ^uint64(0)} // Action is any 64-bit value
				for step := 0; step < 120; step++ {
					idx := rng.Intn(len(all))
					switch step {
					case 10, 40, 70:
						idx = wideIdx // modify it, delete it, later put it back
					}
					r := all[idx]
					switch {
					case !live[idx]:
						if e.Delete(r.Prefix, r.Len) == nil || e.ModifyAction(r.Prefix, r.Len, 1) == nil {
							t.Fatalf("step %d: update of deleted rule %v succeeded", step, r)
						}
						if step == 70 || rng.Intn(2) == 0 { // a flap: its bounds are still there
							r.Action = rng.Uint64()
							spilled := e.SpilledBuckets()
							if insert(step, r); e.SpilledBuckets() != spilled {
								t.Fatalf("step %d: re-insert of %v spilled a bucket; it needs no new bound", step, r)
							}
						}
						continue
					case step%4 == 3: // a fresh rule anywhere
						length := 12 + rng.Intn(width-11)
						p := keys.FromParts(rng.Uint64(), rng.Uint64()).Shr(uint(128 - width))
						r = lpm.Rule{Prefix: p.Shr(uint(width - length)).Shl(uint(width - length)), Len: length, Action: rng.Uint64()}
						if e.findRule(r.Prefix, r.Len) == lpm.NoMatch {
							insert(step, r)
						}
						continue
					case e.Insert(r) == nil:
						t.Fatalf("step %d: insert of installed rule %v succeeded", step, r)
					}
					if step == 40 || (step != 10 && rng.Intn(2) == 0) {
						if err := e.Delete(r.Prefix, r.Len); err != nil {
							t.Fatal(err)
						}
						live[idx] = false
					} else {
						a := rng.Uint64()
						if step%8 < len(edge) {
							a = edge[step%8]
						}
						if err := e.ModifyAction(r.Prefix, r.Len, a); err != nil {
							t.Fatal(err)
						}
						all[idx].Action = a
					}
					check(step, false)
				}

				// A fresh rule whose bounds both exist: re-own, no spill.
				spilled := e.SpilledBuckets()
				upper := lpm.Rule{Prefix: top.Or(keys.FromUint64(1).Shl(uint(width - 9))), Len: 9, Action: 83}
				if insert("upper half", upper); e.SpilledBuckets() != spilled {
					t.Fatalf("fresh rule on existing bounds: spilled buckets %d → %d", spilled, e.SpilledBuckets())
				}
				// A fresh /2 over a quarter of the domain: new bounds at both
				// ends, every bucket between re-owned in place.
				insert("quarter", lpm.Rule{Prefix: keys.FromUint64(1).Shl(uint(width - 2)), Len: 2, Action: 84})
				// One bucket not yet past maxSpillRanges, one single-key rule
				// after another — two bounds each, the one that finds the
				// bucket a range short of full put against its predecessor to
				// add one — until the bucket holds maxSpillRanges, every one
				// of them checked, and then past it.
				var site keys.Value
				for b, span := 0, (keys.Value{}); b*e.rec.k < e.rec.nr; b++ {
					w := e.bucketW(b)
					for j := 0; j+1 < w.n && w.n <= maxSpillRanges; j++ {
						if d := w.low(j + 1).Sub(w.low(j)); span.Less(d) {
							site, span = w.low(j), d
						}
					}
				}
				held := func() int { return e.bucketW(e.bucketOf(site)).n }
				prev := held()
				for i := 1; i <= 70 && held() <= maxSpillRanges; i++ {
					at := site.Add(keys.FromUint64(uint64(2 * i)))
					if held() == maxSpillRanges-1 {
						at = at.Dec()
					}
					prev = held()
					insert(fmt.Sprint("fill ", i), lpm.Rule{Prefix: at, Len: width, Action: uint64(1000 + i)})
				}
				if prev != maxSpillRanges || held() <= maxSpillRanges || !e.rec.overgrown() {
					t.Fatalf("filling one bucket went from %d to %d ranges, overgrown %v; want from %d past it, overgrown",
						prev, held(), e.rec.overgrown(), maxSpillRanges)
				}
				if err := e.Verify(); err != nil {
					t.Fatal(err)
				}
				// Compact folds everything back into dense records.
				if e = e.Compact(); e.SpilledBuckets() != 0 || len(e.absorbed) != 0 || e.rec.overgrown() {
					t.Fatalf("compacted engine kept %d spilled buckets, %d absorbed rules, overgrown %v",
						e.SpilledBuckets(), len(e.absorbed), e.rec.overgrown())
				}
				arms = []func(keys.Value) (uint64, bool){e.Lookup, e.reference}
				check("rebuilt", true)
			})
		}
	}
}

// TestDeletePublicationOrder runs readers against Delete. A key in a range the
// doomed rule owns may answer the doomed action or the covering rule's, and
// nothing else — in particular never a miss, which is what a tombstone
// published before the re-own yields. Keys under rules nested in the doomed
// one never change. The doomed rule owns ranges in over a thousand buckets,
// but with no trie to build the whole re-own is well under a millisecond, and
// a shared box does not always run a second thread for that long: an attempt
// in which no read completed during the delete is made again on a fresh
// engine. A 1-core run can only confirm the answers it happens to interleave.
func TestDeletePublicationOrder(t *testing.T) {
	cover := lpm.Rule{Len: 0, Action: 7}
	rs, doomed := wideRuleSet(t, 32, 20000, 5, cover)
	for _, cfg := range []Config{quickBucketed(), quickSRAMOnly()} {
		for attempt := 1; !deleteUnderReaders(t, rs, cfg, cover, doomed); attempt++ {
			if attempt == 20 {
				t.Errorf("no read completed during the delete in %d attempts; the test saw nothing", attempt)
				break
			}
		}
	}
}

// deleteUnderReaders is one attempt of TestDeletePublicationOrder on a fresh
// engine; it reports whether the readers saw the delete in flight.
func deleteUnderReaders(t *testing.T, rs *lpm.RuleSet, cfg Config, cover, doomed lpm.Rule) (seen bool) {
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
		if low := e.ra.Low(i); covers(doomed, 32, low) {
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
					reads.Add(1)
				}
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
	for _, p := range probes { // and the delete landed
		want := p.want
		if !p.steady {
			want = cover.Action
		}
		if a, ok := e.Lookup(p.key); !ok || a != want {
			t.Fatalf("key %v after delete: (%d,%v), want (%d,true)", p.key, a, ok, want)
		}
	}
	return during > 0 || runtime.GOMAXPROCS(0) == 1
}

// TestRecordBytes pins the served record's bytes: at width ≤ 32 and K = 8 it
// is 16 words, 64 bytes, on a 64-byte aligned base, so every bucket's record
// lies in one cache line — a bucketized, unspilled lookup reads one record
// line (§7) — and at the wider widths it is the header, K−1 bounds of ⌈w/32⌉
// limbs and K ids.
func TestRecordBytes(t *testing.T) {
	for _, tc := range []struct{ width, bytes int }{{32, 64}, {48, 92}, {64, 92}, {128, 148}} {
		e, err := Build(randomRuleSet(t, tc.width, 2000, 43), quickBucketed())
		if err != nil {
			t.Fatal(err)
		}
		if got := 4 * e.rec.stride; got != tc.bytes {
			t.Errorf("width %d, K = 8: a record is %d bytes, want %d", tc.width, got, tc.bytes)
		}
		if tc.width > 32 {
			continue
		}
		base := uintptr(unsafe.Pointer(&e.rec.w[0]))
		if base%64 != 0 {
			t.Fatalf("record array at %#x, not 64-byte aligned", base)
		}
		for b := range e.dir.Len() {
			first := base + uintptr(4*b*e.rec.stride)
			if last := first + uintptr(4*e.rec.stride) - 1; first/64 != last/64 {
				t.Fatalf("bucket %d's record spans lines %#x..%#x", b, first, last)
			}
		}
	}
}

// TestModifyActionPublishesTableFirst runs readers against a writer that
// calls ModifyAction on one rule through 2 000 fresh action values, which
// outgrow the action table's capacity about ten times from the handful of
// actions the rule-set starts with. Each answer for a key under the rule must
// be a value the rule held at some instant inside the read. An id stored
// before its table entry is published sends a reader past the end of the
// table it loaded. Three kinds read: single-key Lookup, LookupBatch and the
// record's answer routine alone. A 1-core run can only confirm the answers it
// happens to interleave.
func TestModifyActionPublishesTableFirst(t *testing.T) {
	const fresh = 2000
	base, _ := wideRuleSet(t, 32, 2000, 23)
	rules := slices.Clone(base.Rules)
	for i := range rules {
		rules[i].Action = uint64(i % 4)
	}
	rs, err := lpm.NewRuleSet(32, rules)
	if err != nil {
		t.Fatal(err)
	}
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	// The rule that owns the most ranges, and both ends of 32 of them.
	owned := map[int32]int{}
	for i := range e.ra.Len() {
		owned[e.ra.RuleOf(i)]++
	}
	idx := int32(0)
	for r, n := range owned {
		if r != ranges.NoRule && (n > owned[idx] || n == owned[idx] && r < idx) {
			idx = r
		}
	}
	var probes []keys.Value
	var buckets []int
	for i := 0; i < e.ra.Len() && len(probes) < 64; i++ {
		if e.ra.RuleOf(i) == idx {
			probes = append(probes, e.ra.Low(i), e.ra.High(i))
			buckets = append(buckets, i/e.dir.K, i/e.dir.K)
		}
	}
	r := rs.Rules[idx]
	values := []uint64{r.Action}
	for n := range fresh {
		values = append(values, 1<<62|uint64(n))
	}

	var started, done atomic.Int64 // ModifyAction calls begun, finished
	var stop atomic.Bool
	var reads, bad atomic.Int64
	var wg sync.WaitGroup
	reader := func(kind int) {
		defer wg.Done()
		out := make([]BatchResult, len(probes))
		for !stop.Load() {
			lo := done.Load()
			switch kind {
			case 0:
				for i, k := range probes {
					out[i].Action, out[i].Matched = e.Lookup(k)
				}
			case 1:
				out = e.LookupBatch(probes, out)
			case 2:
				for i, k := range probes {
					_, _, out[i].Action, out[i].Matched, _ = e.rec.answer(buckets[i], k)
				}
			}
			hi := started.Load()
			for i, got := range out {
				if !got.Matched || !slices.Contains(values[lo:hi+1], got.Action) {
					if bad.Add(1) == 1 {
						t.Errorf("key %v (reader kind %d) answered %+v with ModifyAction calls %d..%d in flight; the rule held %d..%d",
							probes[i], kind, got, lo, hi, values[lo], values[hi])
					}
				}
			}
			reads.Add(1)
			if runtime.GOMAXPROCS(0) == 1 {
				runtime.Gosched()
			}
		}
	}
	for kind := range 3 {
		wg.Add(1)
		go reader(kind)
	}
	for reads.Load() == 0 { // readers are up before the writer starts
		runtime.Gosched()
	}
	for n := 1; n <= fresh; n++ {
		started.Store(int64(n))
		if err := e.ModifyAction(r.Prefix, r.Len, values[n]); err != nil {
			t.Fatal(err)
		}
		done.Store(int64(n))
		if runtime.GOMAXPROCS(0) == 1 {
			runtime.Gosched()
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d illegal answers during %d action changes", n, fresh)
	}
	if got := len(*e.rec.acts.Load()); got > 4+1+fresh {
		t.Fatalf("action table holds %d entries, want at most %d", got, 4+1+fresh)
	}
}

// TestCompactBoundsTheActionTable runs ModifyAction on one rule through three
// times the action table's limit in fresh values, each a new table entry.
// Compact after every write keeps the table within its limit by rebuilding,
// and the engine it leaves answers as the trie oracle does.
func TestCompactBoundsTheActionTable(t *testing.T) {
	rs := randomRuleSet(t, 32, 300, 51)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Rules[len(rs.Rules)/2]
	fresh, rebuilt := 3*e.rec.limit, 0
	for n := range fresh {
		if err := e.ModifyAction(r.Prefix, r.Len, 1<<62|uint64(n)); err != nil {
			t.Fatal(err)
		}
		if next := e.Compact(); next != e {
			e = next
			rebuilt++
		}
		if got := len(*e.rec.acts.Load()); got > e.rec.limit {
			t.Fatalf("after %d fresh values the action table holds %d entries, limit %d", n+1, got, e.rec.limit)
		}
	}
	if rebuilt < 2 {
		t.Fatalf("%d fresh values rebuilt the engine %d times, want at least 2", fresh, rebuilt)
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}
