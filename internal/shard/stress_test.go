package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/fault"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
)

// startCommitter commits the shards of u round-robin, one every interval, on
// a goroutine of its own until the returned stop is called; stop reports the
// first commit that failed.
func startCommitter(u *ShardedUpdatable, interval time.Duration) (stop func() error) {
	done := make(chan struct{})
	failed := make(chan error, 1)
	go func() {
		defer close(failed)
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			case <-time.After(interval):
			}
			if err := u.Commit(i % u.Shards()); err != nil {
				failed <- err
				return
			}
		}
	}()
	return func() error {
		close(done)
		return <-failed
	}
}

// commitAll commits every shard of u.
func commitAll(t *testing.T, u *ShardedUpdatable) {
	t.Helper()
	for i := 0; i < u.Shards(); i++ {
		if err := u.Commit(i); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentReadersWithBackgroundCommit is the torn-snapshot stress
// test: readers stream LookupBatch while a writer inserts and deletes a
// probe rule and a committer goroutine rebuilds shards under them. Invariants
// checked on every read (run under -race in CI's race-and-fuzz job):
//
//   - the probe key always resolves to its base action or the probe-rule
//     action — any other value would be a torn snapshot;
//   - keys in never-written shard slices always resolve to their initial
//     action — a commit of one shard must not disturb another;
//   - every key a reader looks up is booked exactly once, as a lookup and
//     as one bucket fetch (§7): never ahead of the keys issued, and equal to
//     them once the readers have returned.
func TestConcurrentReadersWithBackgroundCommit(t *testing.T) {
	const width = 16
	rs := randomRuleSet(t, width, 200, 41)
	u, err := BuildUpdatable(rs, quickBucketed(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	stopCommits := startCommitter(u, 2*time.Millisecond)

	// The probe: a /16 rule the writer repeatedly inserts and deletes. Its
	// key either matches the probe action (rule present) or whatever the
	// base rule-set says (rule absent) — precompute the base answer.
	probe := freeProbeRule(t, rs, width)
	baseAction, baseOK := lpm.NewTrieMatcher(rs).Lookup(probe.Prefix)

	// Steady keys: resolved once up front; their shards never see writes?
	// No — the probe's shard sees commits, so steady keys prove cross-shard
	// isolation only when they live in other shards. Keep both kinds and
	// assert all of them are commit-invariant (updates only carry the probe).
	steady := randomKeys(width, 256, 43)
	for i, k := range steady {
		if k == probe.Prefix { // keep steady keys commit-invariant
			steady[i] = keys.Value{Hi: k.Hi, Lo: k.Lo ^ 1}
		}
	}
	oracle := lpm.NewTrieMatcher(rs)
	steadyWant := make([]Result, len(steady))
	for i, k := range steady {
		steadyWant[i].Action, steadyWant[i].Matched = oracle.Lookup(k)
	}

	var issued atomic.Uint64 // keys the readers have handed to LookupBatch
	// A scrape renders the lookup series from one load of the tally, so every
	// one holds the two series equal; only a quiescent one can hold them to
	// the keys issued, which a reader counts before its batch books them.
	c0 := scrape()
	checkBooked := func(quiescent bool) {
		c := scrape()
		d := uint64(c["neurolpm_lookups_total"] - c0["neurolpm_lookups_total"])
		df := uint64(c["neurolpm_bucket_fetches_total"] - c0["neurolpm_bucket_fetches_total"])
		if n := issued.Load(); d > n || d != df || (quiescent && d != n) {
			t.Errorf("%d lookups booked, %d bucket fetches, for %d keys issued (quiescent %v)", d, df, n, quiescent)
		}
	}

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	const readers = 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			batch := make([]keys.Value, 0, len(steady)+1)
			batch = append(batch, probe.Prefix)
			batch = append(batch, steady...)
			for n := 0; !stop.Load(); n++ {
				issued.Add(uint64(len(batch)))
				res := u.LookupBatch(batch)
				got := res[0]
				probeSeen := got.Matched && got.Action == probe.Action
				baseSeen := got.Matched == baseOK && (!baseOK || got.Action == baseAction)
				if !probeSeen && !baseSeen {
					torn.Add(1)
				}
				for i, want := range steadyWant {
					if res[i+1].Action != want.Action || res[i+1].Matched != want.Matched {
						torn.Add(1)
					}
				}
				if n%64 == 0 {
					checkBooked(false)
				}
			}
		}(int64(r))
	}

	// Writer: insert probe → (maybe committed under it) → delete cycles.
	// Every intermediate state keeps the probe key's answer
	// in {base, probe}.
	deadline := time.Now().Add(1500 * time.Millisecond)
	cycles := 0
	for time.Now().Before(deadline) {
		if err := u.Insert(probe); err != nil {
			t.Errorf("insert: %v", err)
			break
		}
		time.Sleep(500 * time.Microsecond) // let the committer race the delete
		if err := u.Delete(probe.Prefix, probe.Len); err != nil {
			t.Errorf("delete: %v", err)
			break
		}
		cycles++
	}
	stop.Store(true)
	wg.Wait()

	if err := stopCommits(); err != nil {
		t.Fatalf("commit failed: %v", err)
	}
	if got := torn.Load(); got != 0 {
		t.Fatalf("%d torn reads over %d writer cycles", got, cycles)
	}
	checkBooked(true)
	if cycles < 10 {
		t.Fatalf("writer made only %d cycles; stress run too short", cycles)
	}
}

// TestConcurrentRepeatedKeyReadersWithUpdates races readers against the same
// insert/delete/commit cycle with two more read shapes: batches in which
// every key appears twice, and a single-key Lookup of the probe. Both
// occurrences of a key in one batch, and the single-key answer, must each be
// the probe action or the base answer — never a stale or torn one.
func TestConcurrentRepeatedKeyReadersWithUpdates(t *testing.T) {
	const width = 16
	rs := randomRuleSet(t, width, 200, 41)
	u, err := BuildUpdatable(rs, quickBucketed(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	stopCommits := startCommitter(u, 2*time.Millisecond)

	probe := freeProbeRule(t, rs, width)
	baseAction, baseOK := lpm.NewTrieMatcher(rs).Lookup(probe.Prefix)
	steady := randomKeys(width, 128, 43)
	for i, k := range steady {
		if k == probe.Prefix {
			steady[i] = keys.Value{Hi: k.Hi, Lo: k.Lo ^ 1}
		}
	}
	oracle := lpm.NewTrieMatcher(rs)
	steadyWant := make([]Result, len(steady))
	for i, k := range steady {
		steadyWant[i].Action, steadyWant[i].Matched = oracle.Lookup(k)
	}

	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]keys.Value, 0, 2*len(steady)+2)
			batch = append(batch, probe.Prefix)
			batch = append(batch, steady...)
			batch = append(batch, probe.Prefix)
			batch = append(batch, steady...)
			for !stop.Load() {
				res := u.LookupBatch(batch)
				for _, pi := range []int{0, len(steady) + 1} {
					got := res[pi]
					probeSeen := got.Matched && got.Action == probe.Action
					baseSeen := got.Matched == baseOK && (!baseOK || got.Action == baseAction)
					if !probeSeen && !baseSeen {
						torn.Add(1)
					}
				}
				for i, want := range steadyWant {
					if res[i+1] != want || res[i+2+len(steady)] != want {
						torn.Add(1)
					}
				}
				// The single-key path races the same updates.
				a, ok := u.Lookup(probe.Prefix)
				probeSeen := ok && a == probe.Action
				baseSeen := ok == baseOK && (!baseOK || a == baseAction)
				if !probeSeen && !baseSeen {
					torn.Add(1)
				}
			}
		}()
	}

	deadline := time.Now().Add(1500 * time.Millisecond)
	cycles := 0
	for time.Now().Before(deadline) {
		if err := u.Insert(probe); err != nil {
			t.Errorf("insert: %v", err)
			break
		}
		time.Sleep(500 * time.Microsecond)
		if err := u.Delete(probe.Prefix, probe.Len); err != nil {
			t.Errorf("delete: %v", err)
			break
		}
		cycles++
	}
	stop.Store(true)
	wg.Wait()
	if err := stopCommits(); err != nil {
		t.Fatalf("commit failed: %v", err)
	}
	if got := torn.Load(); got != 0 {
		t.Fatalf("%d stale/torn reads over %d writer cycles", got, cycles)
	}
	if cycles < 10 {
		t.Fatalf("writer made only %d cycles; stress run too short", cycles)
	}
}

// freeProbeRule returns a full-width rule absent from rs whose action is
// distinct from every base action.
func freeProbeRule(t *testing.T, rs *lpm.RuleSet, width int) lpm.Rule {
	t.Helper()
	for p := uint64(0); p < 1<<12; p++ {
		prefix := keys.FromUint64(p * 7919 % (1 << width))
		if rs.Find(prefix, width) == lpm.NoMatch {
			return lpm.Rule{Prefix: prefix, Len: width, Action: 1 << 40}
		}
	}
	t.Fatal("no free probe rule")
	return lpm.Rule{}
}

// TestLookupBatchSurvivesClose pins Close's contract — it returns nil, and
// lookups stay valid — against batches in flight on other goroutines: four
// readers loop LookupBatch across a Close and keep going
// after it, and every answer must equal the trie oracle's. A batch is
// answered on its caller's goroutine, so there is nothing for Close to take
// away from a reader mid-call.
func TestLookupBatchSurvivesClose(t *testing.T) {
	const width, rounds, readers, batchesAfterClose = 16, 20, 4, 8
	rs := randomRuleSet(t, width, 200, 43)
	oracle := lpm.NewTrieMatcher(rs)
	ks := randomKeys(width, 256, 44)
	for round := 0; round < rounds; round++ {
		u, err := BuildUpdatable(rs, quickBucketed(), 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		var (
			closed  atomic.Bool
			wg      sync.WaitGroup
			running = make(chan struct{}, readers)
			bad     = make(chan string, readers)
		)
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n, after := 0, 0; after < batchesAfterClose; n++ {
					if closed.Load() {
						after++
					}
					for i, r := range u.LookupBatch(ks) {
						if a, ok := oracle.Lookup(ks[i]); r.Matched != ok || (ok && r.Action != a) {
							bad <- ks[i].String()
							return
						}
					}
					if n == 0 {
						running <- struct{}{}
					}
				}
			}()
		}
		for g := 0; g < readers; g++ {
			select {
			case <-running:
			case k := <-bad:
				t.Fatalf("round %d: key %s differs from the oracle before Close", round, k)
			}
		}
		if err := u.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		closed.Store(true)
		wg.Wait()
		select {
		case k := <-bad:
			t.Fatalf("round %d: key %s differs from the oracle across Close", round, k)
		default:
		}
	}
}

// TestShardedUpdatableSequentialStorm interleaves lookups with inserts —
// landed in place, half of them then retrained in by a Compact the fault
// site compact forces — deletes,
// modifies, failed and successful commits, checking every answer
// against a lockstep trie oracle — the sequential half of the "0 oracle
// mismatches under updates" acceptance bar (the concurrent half is
// TestConcurrentReadersWithBackgroundCommit; the adversarial half is
// planetest.FuzzStackVsOracle).
func TestShardedUpdatableSequentialStorm(t *testing.T) {
	const width = 32
	rs := randomRuleSet(t, width, 400, 51)
	in := fault.NewInjector(99)
	cfg := core.Config{BucketSize: 8, Model: quickModel(), Fault: in.Hook()}
	u, err := BuildUpdatable(rs, cfg, 4, 0)
	if err != nil {
		t.Fatal(err)
	}

	live := append([]lpm.Rule(nil), rs.Rules...)
	rng := rand.New(rand.NewSource(53))
	hot := randomKeys(width, 48, 57)
	check := func(stage string) {
		t.Helper()
		set, err := lpm.NewRuleSet(width, append([]lpm.Rule(nil), live...))
		if err != nil {
			t.Fatal(err)
		}
		oracle := lpm.NewTrieMatcher(set)
		// Probe the hot set twice per stage, plus fresh random keys, through
		// both the batch and the single-key paths.
		batch := append(append([]keys.Value(nil), hot...), hot...)
		for i := 0; i < 16; i++ {
			batch = append(batch, keys.FromUint64(rng.Uint64()&(1<<width-1)))
		}
		res := u.LookupBatch(batch)
		for i, k := range batch {
			want, wantOK := oracle.Lookup(k)
			if res[i].Matched != wantOK || (wantOK && res[i].Action != want) {
				t.Fatalf("%s: batch key %v: (%d,%v), oracle (%d,%v)",
					stage, k, res[i].Action, res[i].Matched, want, wantOK)
			}
		}
		for _, k := range hot {
			got, ok := u.Lookup(k)
			want, wantOK := oracle.Lookup(k)
			if ok != wantOK || (wantOK && got != want) {
				t.Fatalf("%s: key %v: (%d,%v), oracle (%d,%v)", stage, k, got, ok, want, wantOK)
			}
		}
	}

	check("baseline")
	for step := 0; step < 40; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // insert
			r := lpm.Rule{
				Prefix: keys.FromUint64(rng.Uint64() & (1<<width - 1)),
				Len:    width,
				Action: uint64(rng.Intn(1000)) + 1,
			}
			dup := false
			for _, lr := range live {
				if lr.Prefix == r.Prefix && lr.Len == r.Len {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if rng.Intn(2) == 0 {
				in.FailProb(fault.SiteCompact, 1)
			}
			err := u.Insert(r)
			in.Clear(fault.SiteCompact)
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			live = append(live, r)
		case 4, 5: // delete
			j := rng.Intn(len(live))
			if err := u.Delete(live[j].Prefix, live[j].Len); err != nil {
				t.Fatalf("delete: %v", err)
			}
			live = append(live[:j], live[j+1:]...)
		case 6, 7: // modify
			j := rng.Intn(len(live))
			a := uint64(rng.Intn(1000)) + 2000
			if err := u.ModifyAction(live[j].Prefix, live[j].Len, a); err != nil {
				t.Fatalf("modify: %v", err)
			}
			live[j].Action = a
		case 8: // failed commit
			s := rng.Intn(u.Shards())
			in.FailNext(fault.SiteRetrain, 1)
			err := u.Commit(s)
			in.Clear(fault.SiteRetrain)
			if !errors.Is(err, fault.ErrInjected) {
				t.Fatalf("injected commit failure lost: %v", err)
			}
		case 9: // successful commit
			s := rng.Intn(u.Shards())
			if err := u.Commit(s); err != nil {
				t.Fatalf("commit: %v", err)
			}
		}
		check(fmt.Sprintf("step %d", step))
	}
	commitAll(t, u)
	check("after final commit")
	if err := u.Close(); err != nil {
		t.Fatal(err)
	}
}
