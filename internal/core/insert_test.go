package core

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurolpm/internal/fault"
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
// the Updatable, batch through the engine, and one that runs nothing but the
// record's answer routine on the site's bucket. A spill bit set before the
// bucket's pointer is stored is a nil record; a pointer stored before the
// record's last word — the action of its last range — shows as action 0 on the
// key past the rule's far edge; a matched bit set before its action shows as
// the previous cycle's action. The windows are a few stores wide — a reader
// lands in one when the writer is interrupted there, or by a coincidence of two
// cores — which is why the walk is 48 000 cycles (9 600 records) long and not
// 400: each mutation has to fail this test on its own in a run, not in one run
// out of two. On the
// SRAM-only engine a short walk runs the same cycle through the delta buffer,
// which only the first kind of reader sees.
func TestInsertPublicationOrder(t *testing.T) {
	const (
		sites, blocks, rounds = 1200, 8, 5
		siteLen               = 29
		blockKeys             = 1 << (32 - siteLen)
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
					o := base.Lookup(k)
					if o != lpm.NoMatch {
						pr.baseAct, pr.baseOK = rs.Rules[o].Action, true
					}
					if region.Matches(32, k) && (o == lpm.NoMatch || rs.Rules[o].Len < siteLen) {
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
			built := e.bucketW(buckets[i]).n
			for c := 0; c < blocks; c++ {
				p := site.AddUint64(uint64(blockKeys * c))
				for round := 0; round < rounds; round++ {
					op(i, c, func() error { return u.Insert(lpm.Rule{Prefix: p, Len: siteLen, Action: action(i, c, round, false)}) })
					if absorbs && (u.PendingInserts() != 0 || u.Engine().SpilledBuckets() != i+1) {
						t.Fatalf("site %d rule %d round %d: %d pending, %d spilled buckets; want the insert absorbed, one bucket a site",
							i, c, round, u.PendingInserts(), u.Engine().SpilledBuckets())
					}
					op(i, c, func() error { return u.ModifyAction(p, siteLen, action(i, c, round, true)) })
					op(i, c, func() error { return u.Delete(p, siteLen) })
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

// TestInsertDuringCommitIsNotLost races inserts against Commit on a bare
// Updatable. An insert the live engine absorbs while a commit is rebuilding
// from that engine's rules would vanish at the swap, so Insert must wait for
// the swap — it loads the engine under the lock the commit holds — and land on
// the new engine; every acknowledged insert is answered after every swap.
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

// TestDeleteDuringCommitIsNotResurrected starts a writer at the one point of a
// commit where the rebuilt engine already holds the old rules and is not yet
// live (fault.SiteSwap), gives it a bounded time to land on the engine being
// replaced, and lets the swap go ahead. An update acknowledged before the swap
// and undone by it is a lost update; the writer has to wait for the commit and
// land on the engine it installs, and the oracle holds after both.
func TestDeleteDuringCommitIsNotResurrected(t *testing.T) {
	rs := randomRuleSet(t, 32, 200, 23)
	trie := lpm.NewTrie(rs)
	victim := slices.IndexFunc(rs.Rules, func(r lpm.Rule) bool { return trie.Lookup(r.Prefix) == rs.Find(r.Prefix, r.Len) })
	if victim < 0 {
		t.Fatal("no rule answers its own prefix")
	}
	r := rs.Rules[victim]
	for _, tc := range []struct {
		name  string
		write func(u *Updatable) error
		after func() []lpm.Rule
	}{
		{"delete", func(u *Updatable) error { return u.Delete(r.Prefix, r.Len) },
			func() []lpm.Rule { return slices.Delete(slices.Clone(rs.Rules), victim, victim+1) }},
		{"modify", func(u *Updatable) error { return u.ModifyAction(r.Prefix, r.Len, 1<<41) },
			func() []lpm.Rule {
				out := slices.Clone(rs.Rules)
				out[victim].Action = 1 << 41
				return out
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var u *Updatable
			wrote := make(chan error, 1)
			cfg := quickBucketed()
			cfg.Fault = func(site fault.Site) error {
				if site == fault.SiteSwap {
					go func() { wrote <- tc.write(u) }()
					select {
					case err := <-wrote: // landed beside the rebuild
						wrote <- err
					case <-time.After(50 * time.Millisecond): // waiting for the commit
					}
				}
				return nil
			}
			e, err := Build(rs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			u = NewUpdatable(e, 0)
			if err := u.Commit(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-wrote:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the writer never returned")
			}
			want, err := lpm.NewRuleSet(32, tc.after())
			if err != nil {
				t.Fatal(err)
			}
			wa, wok := lpm.NewTrieMatcher(want).Lookup(r.Prefix)
			if a, ok := u.Lookup(r.Prefix); ok != wok || a != wa {
				t.Fatalf("%s of %v acknowledged during a commit: key answers (%d,%v) after it, the oracle says (%d,%v)", tc.name, r, a, ok, wa, wok)
			}
			if err := u.Engine().Verify(); err != nil {
				t.Fatal(err)
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
