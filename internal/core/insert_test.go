package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// TestInsertPublicationOrder is TestDeletePublicationOrder's sibling for the
// whole in-place update cycle. A writer walks 1200 sites, each inside the last
// range of a bucket of its own, and at every site cycles eight adjacent /29
// rules insert → modify → delete five times each: a rule's first insert adds a
// bound (the site's first rule, two) and publishes a spill record one or two
// ranges larger than the one it supersedes — eight records of eight capacities
// a site, which the readers of that bucket cross, each ending in a range that
// begins at the rule's far edge — its other four find the bounds in place and
// re-own — under a covering rule for the sites of the lower half of the
// domain, from nothing (matched clear → set) in the upper.
//
// Readers stamp every read with the operations completed before it began and
// started before it ended, and each answer — for keys inside the rule, at
// both of its edges and adjacent to it — must be the oracle's after some
// number of operations in that interval. Three kinds read: single-key through
// the live engine's pointer, batch through the engine, and one that runs nothing but the
// record's answer routine on the site's bucket. A header set before the
// bucket's pointer is stored is a nil record; a pointer stored before the
// record's last word — the action id of its last range — shows as a miss on
// the key past the rule's far edge; an id stored before its action-table
// entry is published reads past the table (TestModifyActionPublishesTableFirst
// holds that order on its own). The windows are a few stores wide — a reader
// lands in one when the writer is interrupted there, or by a coincidence of two
// cores — which is why the walk is 48 000 cycles (9 600 records) long and not
// 400: each mutation has to fail this test on its own in a run, not in one run
// out of two. Every write goes through Compact, as a shard's does; the sites
// past the first 200 reuse their actions, so the action table stays below
// its limit and the bucketized engine is never retrained. On the SRAM-only
// engine, overgrown at its first spill, a short walk runs the same cycle with
// every insert landed, retrained in and swapped, which only the first kind of
// reader sees.
func TestInsertPublicationOrder(t *testing.T) {
	const (
		sites, blocks, rounds = 1200, 8, 5
		siteLen               = 29
		blockKeys             = 1 << (32 - siteLen)
		perBlock              = 3 * rounds // operations
		perSite               = blocks * perBlock
		freshSites            = 200 // 16 000 fresh actions: below the action table's limit
	)
	rs, _ := wideRuleSet(t, 32, 20000, 17)
	for _, cfg := range []Config{quickBucketed(), quickSRAMOnly()} {
		e, err := Build(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		absorbs, walk := e.dir != nil, sites
		if !absorbs {
			walk = 2 // every insert is a rebuild of 20 000 rules
		}
		// The live engine, held as a shard holds it: op publishes what
		// Compact returns after every write.
		var live atomic.Pointer[Engine]
		live.Store(e)

		// A site is a /26 no rule begins or ends in, no two in a bucket; its
		// eight /29 parts are the rules cycled there.
		type probe struct {
			key     keys.Value
			block   int    // the part whose rule answers it while installed, or -1
			baseAct uint64 // the answer while that rule is absent
			baseOK  bool
		}
		var (
			prefixes []keys.Value
			buckets  []int
			probes   [][blocks][]probe
			taken    = map[int]bool{}
			rng      = rand.New(rand.NewSource(18))
		)
		for len(prefixes) < walk {
			p := keys.FromUint64(rng.Uint64() >> 32 &^ 63)
			if len(prefixes)%2 == 1 {
				p.Lo |= 1 << 31 // every other site in the half `wide` does not cover
			}
			region := lpm.Rule{Prefix: p, Len: siteLen - 3}
			low, high := region.Low(32), region.High(32)
			b := e.bucketOf(low)
			if taken[b] || high == keys.MaxValue(32) || e.bucketOf(high.Inc()) != b {
				continue
			}
			// The site lies strictly inside the bucket's last range: the bucket has
			// none of its bounds, and every record published there ends in a range
			// that begins at one of them — the last words a writer fills.
			if w := e.bucketW(b); !w.low(w.n - 1).Less(low) {
				continue
			}
			var ps [blocks][]probe
			for c := range ps {
				r := lpm.Rule{Prefix: p.AddUint64(uint64(blockKeys * c)), Len: siteLen}
				low, high := r.Low(32), r.High(32)
				for _, k := range []keys.Value{low.Dec(), low, low.AddUint64(5), high, high.Inc()} {
					pr := probe{key: k, block: -1}
					o := longestMatch(rs, k)
					if o != lpm.NoMatch {
						pr.baseAct, pr.baseOK = rs.Rules[o].Action, true
					}
					if covers(region, 32, k) && (o == lpm.NoMatch || rs.Rules[o].Len < siteLen) {
						pr.block = int(k.Sub(p).Lo) / blockKeys
					}
					ps[c] = append(ps[c], pr)
				}
			}
			taken[b] = true
			prefixes, buckets, probes = append(prefixes, p), append(buckets, b), append(probes, ps)
		}
		// Operation n (from 1) is phase (n−1)%3 of round ((n−1)%perBlock)/3 of
		// block ((n−1)%perSite)/perBlock of site (n−1)/perSite. want is the
		// oracle's answer for a probe of site i once `done` operations have
		// completed.
		action := func(i, c, round int, modified bool) uint64 {
			a := uint64(1)<<40 + uint64((i%freshSites*blocks+c)*rounds+round)*2
			if modified {
				a++
			}
			return a
		}
		want := func(i int, p probe, done int64) (uint64, bool) {
			t := int(done) - i*perSite - p.block*perBlock // operations on its rule so far
			if p.block >= 0 && t > 0 && t < perBlock && t%3 != 0 {
				return action(i, p.block, (t-1)/3, t%3 == 2), true
			}
			return p.baseAct, p.baseOK
		}

		var started, done atomic.Int64 // operations the writer has begun, finished
		var stop atomic.Bool
		var reads, bad atomic.Int64
		var wg sync.WaitGroup
		const single, batch, record = 0, 1, 2
		reader := func(kind int) {
			defer wg.Done()
			var ks []keys.Value
			var out []BatchResult
			recPass := make([]probe, 0, 8)
			for pass := 0; !stop.Load(); pass++ {
				n := max(int(started.Load())-1, 0) // the operation in flight
				i, c := n/perSite, n%perSite/perBlock
				ps := probes[i][c]
				lo := done.Load()
				switch kind {
				case single:
					out = out[:0]
					for _, p := range ps {
						a, ok := live.Load().Lookup(p.key)
						out = append(out, BatchResult{Action: a, Matched: ok})
					}
				case batch:
					ks = ks[:0]
					for _, p := range ps {
						ks = append(ks, p.key)
					}
					out = e.LookupBatch(ks, out)
				case record:
					// The same key eight times a stamp: the stamps are the
					// writer's cache lines and cost more than the answers.
					p, b := ps[1+pass%4], buckets[i]
					ps, out = recPass[:0], out[:0]
					for range cap(recPass) {
						_, _, a, ok, _ := e.rec.answer(b, p.key)
						ps, out = append(ps, p), append(out, BatchResult{Action: a, Matched: ok})
					}
				}
				hi := started.Load()
				for j, p := range ps {
					legal := false
					for s := lo; s <= hi && !legal; s++ {
						a, ok := want(i, p, s)
						legal = out[j].Matched == ok && (!ok || out[j].Action == a)
					}
					if !legal && bad.Add(1) == 1 {
						a, ok := want(i, p, lo)
						t.Errorf("site %d rule %d key %v (reader kind %d) answered %+v with operations %d..%d in flight; after %d the oracle says (%d,%v)",
							i, c, p.key, kind, out[j], lo, hi, lo, a, ok)
					}
				}
				reads.Add(1)
				if runtime.GOMAXPROCS(0) == 1 {
					runtime.Gosched() // or every pass costs the writer a time slice
				}
			}
		}
		wg.Add(1)
		go reader(single)
		if absorbs { // the built engine's own arms never see a rebuilt one
			wg.Add(2)
			go reader(batch)
			go reader(record)
		}
		for reads.Load() == 0 { // readers are up before the writer starts
			runtime.Gosched()
		}
		op := func(i, c int, f func(cur *Engine) error) {
			t.Helper()
			started.Add(1)
			cur := live.Load()
			err := f(cur)
			live.Store(cur.Compact())
			if err != nil {
				t.Fatal(err)
			}
			n := done.Add(1)
			// A read that starts after the operation returned sees it.
			for _, p := range probes[i][c] {
				wa, wok := want(i, p, n)
				if a, ok := live.Load().Lookup(p.key); ok != wok || (ok && a != wa) {
					t.Fatalf("site %d rule %d key %v after operation %d: (%d,%v), want (%d,%v)", i, c, p.key, n, a, ok, wa, wok)
				}
			}
			if runtime.GOMAXPROCS(0) == 1 {
				runtime.Gosched() // let the readers in between operations
			}
		}
		for i, site := range prefixes {
			built := e.bucketW(buckets[i]).n
			for c := 0; c < blocks; c++ {
				p := site.AddUint64(uint64(blockKeys * c))
				for round := 0; round < rounds; round++ {
					r := lpm.Rule{Prefix: p, Len: siteLen, Action: action(i, c, round, false)}
					op(i, c, func(cur *Engine) error { return cur.Insert(r) })
					if absorbs && (live.Load() != e || e.SpilledBuckets() != i+1) {
						t.Fatalf("site %d rule %d round %d: engine rebuilt or %d spilled buckets; want the insert absorbed, one bucket a site",
							i, c, round, e.SpilledBuckets())
					}
					a := action(i, c, round, true)
					op(i, c, func(cur *Engine) error { return cur.ModifyAction(p, siteLen, a) })
					op(i, c, func(cur *Engine) error { return cur.Delete(p, siteLen) })
				}
				if n := e.bucketW(buckets[i]).n; absorbs && n != built+c+2 {
					t.Fatalf("site %d: %d ranges after rule %d, want %d: every rule's first insert publishes a larger record", i, n, c, built+c+2)
				}
			}
		}
		stop.Store(true)
		wg.Wait()
		if n := bad.Load(); n != 0 {
			t.Fatalf("%d illegal answers during %d operations", n, done.Load())
		}
	}
}

// TestCompactRetrainsAsRebuildWithTheRule: the insert that overgrows an
// engine lands in place, and the engine Compact then returns is the one
// Rebuild of the pre-insert engine with the rule added builds — the path such
// an insert took when engines refused it: the same model, LUT by LUT and
// bound by bound, the same compiled plane, records and action table, the same
// answers, and Verify passes on it. Single-key rules fill one bucket: an
// SRAM-only engine is overgrown at its first spill, K = 64 at the first that
// passes 64 ranges, a full bucket's first, and K = 8 when the bucket does.
func TestCompactRetrainsAsRebuildWithTheRule(t *testing.T) {
	for _, k := range []int{0, 8, 64} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			rs, _ := wideRuleSet(t, 32, 300, 61)
			e, err := Build(rs, Config{BucketSize: k, Model: quickModel()})
			if err != nil {
				t.Fatal(err)
			}
			// The widest range of the build: the rules inside it fall in one
			// bucket, each adding two bounds.
			var site, span keys.Value
			for i := 0; i+1 < e.ra.Len(); i++ {
				if d := e.ra.Low(i + 1).Sub(e.ra.Low(i)); span.Less(d) {
					site, span = e.ra.Low(i), d
				}
			}
			for i := 1; !e.rec.overgrown(); i++ {
				if i > 40 {
					t.Fatal("40 inserts overgrew no engine")
				}
				r := lpm.Rule{Prefix: site.AddUint64(uint64(2 * i)), Len: 32, Action: uint64(7000 + i)}
				want, err := e.Rebuild(r)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Insert(r); err != nil {
					t.Fatal(err)
				}
				if !e.rec.overgrown() {
					if e.Compact() != e {
						t.Fatalf("insert %d: Compact retrained an engine that is not overgrown", i)
					}
					continue
				}
				got := e.Compact()
				t.Logf("overgrown at insert %d, %d ranges in the site's bucket", i, e.bucketW(e.bucketOf(site)).n)
				if got == e {
					t.Fatalf("insert %d: Compact kept an overgrown engine", i)
				}
				if !reflect.DeepEqual(got.model, want.model) || !reflect.DeepEqual(got.comp, want.comp) {
					t.Fatalf("insert %d: Compact trained another model than Rebuild with the rule", i)
				}
				if !slices.Equal(got.rec.w, want.rec.w) || !slices.Equal(*got.rec.acts.Load(), *want.rec.acts.Load()) {
					t.Fatalf("insert %d: Compact laid out other records than Rebuild with the rule", i)
				}
				rng := rand.New(rand.NewSource(int64(i)))
				var ks []keys.Value
				for j := 0; j < got.ra.Len(); j++ {
					ks = append(ks, got.ra.Low(j), keys.FromUint64(uint64(rng.Uint32())))
				}
				for _, key := range ks {
					ga, gok := got.Lookup(key)
					wa, wok := want.Lookup(key)
					if ga != wa || gok != wok {
						t.Fatalf("key %v: Compact's engine answers (%d,%v), Rebuild's (%d,%v)", key, ga, gok, wa, wok)
					}
				}
				if err := got.Verify(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestInsertWithoutNewBoundaryAllocatesNothing pins the in-place half of
// Insert: a rule deleted from this engine left its bounds behind, so putting it
// back re-owns ranges and builds no record, no map and no slice.
func TestInsertWithoutNewBoundaryAllocatesNothing(t *testing.T) {
	rs, wide := wideRuleSet(t, 32, 2000, 29)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	flaps := []lpm.Rule{wide, rs.Rules[len(rs.Rules)/2], {Prefix: keys.FromUint64(0x0a0b0c00), Len: 24, Action: 9}}
	if err := e.Insert(flaps[2]); err != nil { // absorbed: its later flaps find an absorbed rule's bounds
		t.Fatal(err)
	}
	for _, r := range flaps {
		if n := testing.AllocsPerRun(50, func() {
			if e.Delete(r.Prefix, r.Len) != nil || e.Insert(r) != nil {
				t.Fatalf("flap of %v failed", r)
			}
		}); n != 0 {
			t.Errorf("delete + re-insert of %v: %v allocations, want 0", r, n)
		}
	}
	if err := e.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestSupersededSpillRecordsAreCollected respills 2 000 buckets ten times each
// with a finalizer on every record published. The nine a bucket has left behind
// are garbage the moment no reader is on them: all of them are collected, and
// none of the current ones.
func TestSupersededSpillRecordsAreCollected(t *testing.T) {
	const buckets, respills = 2000, 10
	rs, _ := wideRuleSet(t, 32, 20000, 31)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	var published, collected atomic.Int64
	for b, done := 0, 0; done < buckets; b++ {
		if b*e.rec.k >= e.rec.nr {
			t.Fatalf("only %d buckets have a range with room for %d rules", done, respills)
		}
		w := e.bucketW(b)
		j := 0
		for j+1 < w.n && w.low(j+1).Sub(w.low(j)).Lo <= 2*respills {
			j++
		}
		if j+1 == w.n {
			continue
		}
		for i, site := 1, w.low(j); i <= respills; i++ {
			if err := e.Insert(lpm.Rule{Prefix: site.AddUint64(uint64(2 * i)), Len: 32, Action: uint64(i)}); err != nil {
				t.Fatal(err)
			}
			s := e.rec.spillOf(b)
			if s.k != w.n+2*i {
				t.Fatalf("bucket %d insert %d: no fresh record of %d ranges", b, i, w.n+2*i)
			}
			published.Add(1)
			runtime.SetFinalizer(s, func(*spillRecord) { collected.Add(1) })
		}
		done++
	}
	want := published.Load() - buckets
	for wait := 0; collected.Load() < want && wait < 200; wait++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != want {
		t.Fatalf("%d of %d published records collected, want the %d superseded ones", got, published.Load(), want)
	}
	if e.SpilledBuckets() != buckets {
		t.Fatalf("%d spilled buckets, want %d", e.SpilledBuckets(), buckets)
	}
	if err := e.Verify(); err != nil { // keeps e, and with it the current records, alive
		t.Fatal(err)
	}
}

// TestWritersFindBucketsLikeLookups holds the writers' bucket search — over
// the compiled plane's bounds, as a lookup finds its bucket — to the range
// array's own at both ends of every range and below it, on every engine kind
// (K = 1 is SRAM-only, each range its own bucket) at one and four bound limbs;
// and a bucket's bounds as the writer reads them (its record, and its
// directory bound for range 0) to the range array's on an unspilled engine.
func TestWritersFindBucketsLikeLookups(t *testing.T) {
	for _, width := range []int{32, 128} {
		for _, k := range []int{1, 8, 64} {
			t.Run(fmt.Sprintf("width%d/k%d", width, k), func(t *testing.T) {
				rs, _ := wideRuleSet(t, width, 400, 3)
				cfg := Config{BucketSize: k, Model: quickModel()}
				if k == 1 {
					cfg.BucketSize = 0
				}
				e, err := Build(rs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ra := e.ra
				check := func(key keys.Value) {
					t.Helper()
					flat := sort.Search(ra.Len(), func(i int) bool { return key.Less(ra.Low(i)) }) - 1
					if got, want := e.bucketOf(key), flat/k; got != want {
						t.Fatalf("bucketOf(%v) = %d, range array says %d", key, got, want)
					}
				}
				for i := range ra.Len() {
					check(ra.Low(i))
					check(ra.High(i))
					if i > 0 {
						check(ra.Low(i).Dec())
					}
				}
				for b := 0; b*k < ra.Len(); b++ {
					w := e.bucketW(b)
					for j := 0; j < w.n; j++ {
						if got, want := w.low(j), ra.Low(b*k+j); got != want {
							t.Fatalf("bucket %d range %d: writer reads low %v, range array %v", b, j, got, want)
						}
					}
				}
			})
		}
	}
}
