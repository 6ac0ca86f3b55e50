package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// TestInsertPublicationOrder is TestDeletePublicationOrder's sibling for the
// whole in-place update cycle. A writer walks 1200 sites, each a bucket of its
// own, and at every site cycles four adjacent /28 rules insert → modify →
// delete five times each: a rule's first insert adds a bound or two and
// publishes a spill record, its other four find them in place and re-own —
// under a covering rule for the sites of the lower half of the domain, from
// nothing (matched clear → set) in the upper.
//
// Readers stamp every read with the operations completed before it began and
// started before it ended, and each answer — for keys inside the rule, at
// both of its edges and adjacent to it — must be the oracle's after some
// number of operations in that interval. Three kinds read: single-key through
// the Updatable, batch through the engine, and one that runs nothing but the
// record's answer routine on the site's bucket. A spill
// record published before it is filled shows as a miss under a covered site;
// a matched bit set before its action shows as the previous cycle's action.
// Both windows are a few stores wide — a reader lands in one when the writer
// is interrupted there, or by a coincidence of two cores — which is why the
// walk is 24 000 cycles long and not 400: each of the two mutations has to
// fail this test on its own in a run, not in one run out of two. On the
// SRAM-only engine a short walk runs the same cycle through the delta buffer,
// which only the first kind of reader sees.
func TestInsertPublicationOrder(t *testing.T) {
	const (
		sites, blocks, rounds = 1200, 4, 5
		siteLen               = 28
		perBlock              = 3 * rounds // operations
		perSite               = blocks * perBlock
	)
	rs, _ := wideRuleSet(t, 32, 20000, 17)
	base := lpm.NewTrie(rs)
	for _, cfg := range []Config{quickBucketed(), quickSRAMOnly()} {
		e, err := Build(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		absorbs, walk := e.dir != nil, sites
		if !absorbs {
			walk = sites / 20
		}
		u := NewUpdatable(e, 0)

		// A site is a /26 absent from the rule-set, inside one bucket, no two
		// in the same; its four /28 quarters are the rules cycled there.
		type probe struct {
			key     keys.Value
			block   int    // the quarter whose rule answers it while installed, or -1
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
			region := lpm.Rule{Prefix: p, Len: siteLen - 2}
			low, high := region.Low(32), region.High(32)
			b := e.bucketOf(low)
			if taken[b] || e.bucketOf(high) != b || low.IsZero() || high == keys.MaxValue(32) {
				continue
			}
			var ps [blocks][]probe
			for c := range ps {
				r := lpm.Rule{Prefix: p.AddUint64(uint64(16 * c)), Len: siteLen}
				if rs.Find(r.Prefix, siteLen) != lpm.NoMatch {
					ps[0] = nil
					break
				}
				low, high := r.Low(32), r.High(32)
				for _, k := range []keys.Value{low.Dec(), low, low.AddUint64(5), high, high.Inc()} {
					pr := probe{key: k, block: -1}
					o := base.Lookup(k)
					if o != lpm.NoMatch {
						pr.baseAct, pr.baseOK = rs.Rules[o].Action, true
					}
					if region.Matches(32, k) && (o == lpm.NoMatch || rs.Rules[o].Len < siteLen) {
						pr.block = int(k.Sub(p).Lo) / 16
					}
					ps[c] = append(ps[c], pr)
				}
			}
			if ps[0] == nil {
				continue
			}
			taken[b] = true
			prefixes, buckets, probes = append(prefixes, p), append(buckets, b), append(probes, ps)
		}
		// Operation n (from 1) is phase (n−1)%3 of round ((n−1)%perBlock)/3 of
		// block ((n−1)%perSite)/perBlock of site (n−1)/perSite. want is the
		// oracle's answer for a probe of site i once `done` operations have
		// completed.
		action := func(i, c, round int, modified bool) uint64 {
			a := uint64(1)<<40 + uint64((i*blocks+c)*rounds+round)*2
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
						a, ok := u.Lookup(p.key)
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
					p, b := ps[1+pass%3], buckets[i]
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
		if absorbs { // the engine's own arms never see the delta buffer
			wg.Add(2)
			go reader(batch)
			go reader(record)
		}
		for reads.Load() == 0 { // readers are up before the writer starts
			runtime.Gosched()
		}
		op := func(i, c int, f func() error) {
			t.Helper()
			started.Add(1)
			if err := f(); err != nil {
				t.Fatal(err)
			}
			n := done.Add(1)
			// A read that starts after the operation returned sees it.
			for _, p := range probes[i][c] {
				wa, wok := want(i, p, n)
				if a, ok := u.Lookup(p.key); ok != wok || (ok && a != wa) {
					t.Fatalf("site %d rule %d key %v after operation %d: (%d,%v), want (%d,%v)", i, c, p.key, n, a, ok, wa, wok)
				}
			}
			if runtime.GOMAXPROCS(0) == 1 {
				runtime.Gosched() // let the readers in between operations
			}
		}
		for i, site := range prefixes {
			for c := 0; c < blocks; c++ {
				p := site.AddUint64(uint64(16 * c))
				for round := 0; round < rounds; round++ {
					op(i, c, func() error { return u.Insert(lpm.Rule{Prefix: p, Len: siteLen, Action: action(i, c, round, false)}) })
					if absorbs && (u.PendingInserts() != 0 || u.Engine().SpilledBuckets() != i+1) {
						t.Fatalf("site %d rule %d round %d: %d pending, %d spilled buckets; want the insert absorbed, one bucket a site",
							i, c, round, u.PendingInserts(), u.Engine().SpilledBuckets())
					}
					op(i, c, func() error { return u.ModifyAction(p, siteLen, action(i, c, round, true)) })
					op(i, c, func() error { return u.Delete(p, siteLen) })
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

// TestInsertDuringCommitIsNotLost races inserts against Commit on a bare
// Updatable. An insert the live engine absorbs while a commit is rebuilding
// from that engine's rules would vanish at the swap, so Insert must see the
// commit in flight — under the lock it loads the engine under — and buffer;
// every acknowledged insert is answered after every swap.
func TestInsertDuringCommitIsNotLost(t *testing.T) {
	rs := randomRuleSet(t, 32, 100, 19)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	u := NewUpdatable(e, 0)
	var (
		mu    sync.Mutex
		acked []lpm.Rule
	)
	const perCycle = 4 // inserts let in per commit, so the rule-set stays small
	var budget atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(20))
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if budget.Load() <= 0 {
				runtime.Gosched()
				continue
			}
			r := lpm.Rule{Prefix: keys.FromUint64(rng.Uint64() >> 32), Len: 32, Action: 1<<40 + i}
			if rs.Find(r.Prefix, 32) != lpm.NoMatch {
				continue
			}
			if err := u.Insert(r); err != nil {
				continue // a duplicate of an earlier draw
			}
			mu.Lock()
			acked = append(acked, r)
			mu.Unlock()
			budget.Add(-1)
			runtime.Gosched()
		}
	}()
	// 200 commits, and on more than one core as many more as it takes for 200
	// inserts to have raced them: a commit of this rule-set is well under a
	// millisecond, so on a loaded box the inserter can miss whole cycles.
	raced := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(acked)
	}
	for cycle := 0; cycle < 200 || (runtime.GOMAXPROCS(0) > 1 && raced() < 200 && cycle < 20000); cycle++ {
		budget.Store(perCycle)
		if err := u.Commit(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		sofar := acked // its elements are never rewritten
		mu.Unlock()
		for _, r := range sofar {
			if a, ok := u.Lookup(r.Prefix); !ok || a != r.Action {
				t.Fatalf("cycle %d: acknowledged insert %v answers (%d,%v) after the swap", cycle, r, a, ok)
			}
		}
	}
	close(stop)
	wg.Wait()
	if runtime.GOMAXPROCS(0) > 1 && len(acked) < 200 {
		t.Errorf("only %d inserts raced 200 commits", len(acked))
	}
	if err := u.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := u.Engine().Verify(); err != nil {
		t.Fatal(err)
	}
}
