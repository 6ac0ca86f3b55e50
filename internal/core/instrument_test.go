package core

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/telemetry"
)

// series is a reading of every series a lookup books.
type series struct {
	lookups, matched, fetches, spills uint64
	probes, errs, cmps                uint64 // 1:64 sampled histograms
	flight                            uint64 // flight records committed
}

// scrape renders the default registry as /metrics does and returns each
// series' value by its name, labels included.
func scrape() map[string]float64 {
	var b strings.Builder
	telemetry.Default.WritePrometheus(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || line[0] == '#' {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// readSeries reads the counters from a scrape, the derived ones summed from
// the tally's lanes.
func readSeries() series {
	snap := scrape()
	return series{
		lookups: uint64(snap["neurolpm_lookups_total"]),
		matched: uint64(snap["neurolpm_lookups_matched_total"]),
		fetches: uint64(snap["neurolpm_bucket_fetches_total"]),
		spills:  uint64(snap["neurolpm_bucket_spill_fetches_total"]),
		probes:  metProbes.Snapshot().Total,
		errs:    metInferErr.Snapshot().Total,
		cmps:    metBucketCmp.Snapshot().Total,
		flight:  telemetry.Flight.Recorded(),
	}
}

// booked is what a run of lookups should have booked: n lookups, matched of
// them matching by the oracle, on a bucketized engine or an SRAM-only one,
// from g goroutines at flight stride stride, batch lookups among them or not.
type booked struct {
	n, matched, g, stride uint64
	bucketized, batched   bool
}

// checkBooked holds what w's lookups booked between before and after: every
// counter exactly, and every sampled series at its stride. A distribution is
// observed where a lane add reaches a multiple of sampleEvery — the add's
// return, so a lane's ticks run in sequence whoever books it — and the flight
// recorder claims each stride tick of a stripe once, however many goroutines
// peek it. So a series misses n/stride only by where the run's ends fall in
// each tick sequence it used, less than one a sequence: two lanes a stripe
// for the distributions, one for the recorder. For g goroutines on the four
// stripes of a box of up to 4 CPUs that is within g (g ≥ 8); for a lone
// goroutine whose n is a multiple of the stride, within one. The newest
// records must carry stage stamps, an inference stamp on every single-key
// one: trace times a drawn key's whole pipeline.
func checkBooked(t *testing.T, before, after series, w booked) {
	t.Helper()
	if d := after.lookups - before.lookups; d != w.n {
		t.Errorf("lookups_total delta = %d, want %d", d, w.n)
	}
	if d := after.matched - before.matched; d != w.matched {
		t.Errorf("lookups_matched_total delta = %d, want the oracle's %d", d, w.matched)
	}
	fetched := w.n
	if !w.bucketized {
		fetched = 0
	}
	if d := after.fetches - before.fetches; d != fetched {
		t.Errorf("fetches delta %d, want %d (§7: exactly one per bucketized query)", d, fetched)
	}
	near := func(name string, d, want uint64) {
		if d+w.g < want || d > want+w.g {
			t.Errorf("%s gained %d samples, want %d (± %d)", name, d, want, w.g)
		}
	}
	near("neurolpm_sram_probes", after.probes-before.probes, w.n/sampleEvery)
	near("neurolpm_inference_err", after.errs-before.errs, w.n/sampleEvery)
	near("neurolpm_bucket_search_comparisons", after.cmps-before.cmps, fetched/sampleEvery)
	recorded := after.flight - before.flight
	near("flight ring", recorded, w.n/w.stride)
	for _, rec := range telemetry.Flight.Recent(int(min(recorded, uint64(telemetry.Flight.RingSize())))) {
		stamped := rec.StageNs[telemetry.StageInference] + rec.StageNs[telemetry.StageSearch] + rec.StageNs[telemetry.StageFetch]
		if (rec.Batch && !w.batched) || rec.BucketRead != w.bucketized || stamped <= 0 || stamped > rec.TotalNs ||
			(!rec.Batch && rec.StageNs[telemetry.StageInference] <= 0) {
			t.Fatalf("flight record %+v: want a bucket read %v with stage stamps (batch records allowed: %v)",
				rec, w.bucketized, w.batched)
		}
	}
}

// missingRuleSet is randomRuleSet without the rules shorter than /8, so that
// a good share of random keys match no rule and lookups_matched_total has
// something to tell apart.
func missingRuleSet(t *testing.T, n int, seed int64) *lpm.RuleSet {
	var long []lpm.Rule
	for _, r := range randomRuleSet(t, 32, n, seed).Rules {
		if r.Len >= 8 {
			long = append(long, r)
		}
	}
	rs, err := lpm.NewRuleSet(32, long)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// countingMem is a cachesim.Mem that counts the DRAM reads issued through it.
type countingMem struct{ reads uint64 }

func (m *countingMem) Read(uint64, int) { m.reads++ }

// setStride sets the flight recorder's stride for the rest of t.
func setStride(t *testing.T, stride uint64) {
	prev := telemetry.Flight.SampleEvery()
	t.Cleanup(func() { telemetry.Flight.SetSampleEvery(prev) })
	telemetry.Flight.SetSampleEvery(stride)
}

// TestBucketFetchInvariant holds §7 where the engine issues its reads: through
// LookupMem, a bucketized engine reads DRAM exactly once a key and an
// SRAM-only one never. Both arms — Lookup, whose keys mostly take the bare
// pipeline, and LookupMem, which always traces — book every series exactly
// (checkBooked), a fetch for every key of the bucketized engine.
func TestBucketFetchInvariant(t *testing.T) {
	rs := missingRuleSet(t, 400, 7)
	oracle := lpm.NewTrieMatcher(rs)
	const n, stride = 128 * 50, 128
	setStride(t, stride)
	rng := rand.New(rand.NewSource(11))
	ks := make([]keys.Value, n)
	var matched uint64
	for i := range ks {
		ks[i] = randomKey(rng, 32)
		if _, ok := oracle.Lookup(ks[i]); ok {
			matched++
		}
	}
	for _, bucketized := range []bool{true, false} {
		cfg := quickSRAMOnly()
		if bucketized {
			cfg = quickBucketed()
		}
		e, err := Build(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := booked{n: n, matched: matched, g: 1, stride: stride, bucketized: bucketized}

		before := readSeries()
		for _, k := range ks {
			e.Lookup(k)
		}
		checkBooked(t, before, readSeries(), w)

		mem := &countingMem{}
		before = readSeries()
		for _, k := range ks {
			e.LookupMem(k, mem)
		}
		checkBooked(t, before, readSeries(), w)
		if want := n * b2u(bucketized); mem.reads != want {
			t.Errorf("bucketized %v: %d DRAM reads for %d lookups, want %d", bucketized, mem.reads, n, want)
		}
	}
}

// TestScrapeIsOneCutOfTheTally holds §7 on a live scrape: a scrape renders
// the three lookup series from one load of the tally, so with lookups running
// beside it on a bucketized engine, every scrape shows as many bucket
// fetches as lookups, and no more matched lookups.
func TestScrapeIsOneCutOfTheTally(t *testing.T) {
	e, err := Build(randomRuleSet(t, 32, 2000, 5), quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	before := readSeries()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for range 256 {
					e.Lookup(randomKey(rng, 32))
				}
			}
		}()
	}
	for range 200 {
		s := readSeries()
		n, m := s.lookups-before.lookups, s.matched-before.matched
		if f := s.fetches - before.fetches; f != n || m > n {
			t.Errorf("one scrape: %d lookups, %d fetches, %d matched", n, f, m)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestSRAMOnlyNoFetches checks the complementary invariant: an SRAM-only
// engine never touches the bucket path — through LookupMem no DRAM read, and
// through LookupMem and LookupBatch alike no fetch booked — while every key is
// still booked.
func TestSRAMOnlyNoFetches(t *testing.T) {
	rs := randomRuleSet(t, 32, 300, 9)
	e, err := Build(rs, quickSRAMOnly())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ks := make([]keys.Value, 2000)
	for i := range ks {
		ks[i] = randomKey(rng, 32)
	}
	mem := &countingMem{}
	for _, arm := range []struct {
		name string
		look func()
	}{
		{"LookupMem", func() {
			for _, k := range ks {
				e.LookupMem(k, mem)
			}
		}},
		{"LookupBatch", func() { e.LookupBatch(ks, nil) }},
	} {
		before := readSeries()
		arm.look()
		after := readSeries()
		if d := after.lookups - before.lookups; mem.reads != 0 || after.fetches != before.fetches || d != uint64(len(ks)) {
			t.Fatalf("%s: SRAM-only engine issued %d DRAM reads and booked %d fetches, %d lookups of %d",
				arm.name, mem.reads, after.fetches-before.fetches, d, len(ks))
		}
	}
}

// TestSpilledBucketBooksOneSpillFetch: a key whose bucket answers from a spill
// record books neurolpm_bucket_spill_fetches_total once a lookup, on the bare
// arm and on the traced arm, and a key of an unspilled bucket never does.
func TestSpilledBucketBooksOneSpillFetch(t *testing.T) {
	rs := randomRuleSet(t, 32, 400, 17)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	var spilled, plain keys.Value
	for spilled.IsZero() || plain.IsZero() {
		k := randomKey(rng, 32)
		switch tr := e.LookupMem(k, cachesim.Null{}); {
		case tr.Spilled:
		case spilled.IsZero() && e.Insert(lpm.Rule{Prefix: k, Len: 32, Action: 5}) == nil:
			if e.LookupMem(k, cachesim.Null{}).Spilled {
				spilled = k
			}
		case plain.IsZero():
			plain = k
		}
	}
	if e.LookupMem(plain, cachesim.Null{}).Spilled {
		t.Fatal("the unspilled key's bucket spilled")
	}
	const n = 1000
	for _, arm := range []struct {
		name string
		look func(keys.Value)
	}{
		{"bare", func(k keys.Value) { e.Lookup(k) }},
		{"traced", func(k keys.Value) { e.LookupMem(k, cachesim.Null{}) }},
	} {
		for _, c := range []struct {
			k    keys.Value
			want uint64
		}{{spilled, n}, {plain, 0}} {
			before := readSeries()
			for i := 0; i < n; i++ {
				arm.look(c.k)
			}
			if d := readSeries().spills - before.spills; d != c.want {
				t.Errorf("%s arm, key %v: spill fetches delta %d over %d lookups, want %d", arm.name, c.k, d, n, c.want)
			}
		}
	}
}

// TestLookupPathsAgree pins the satellite requirement that Lookup,
// LookupMem and LookupRecord share one implementation: identical results and
// identical per-query statistics for the same key, and a record of it timed
// through the engine's stages.
func TestLookupPathsAgree(t *testing.T) {
	rs := randomRuleSet(t, 32, 500, 21)
	for name, cfg := range map[string]Config{"sram": quickSRAMOnly(), "bucketized": quickBucketed()} {
		e, err := Build(rs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 2000; i++ {
			k := randomKey(rng, 32)
			trMem := e.LookupMem(k, cachesim.Null{})
			trRec, fr := e.LookupRecord(k)
			action, ok := e.Lookup(k)
			if trMem != trRec {
				t.Fatalf("%s: LookupMem %+v != LookupRecord %+v", name, trMem, trRec)
			}
			if ok != trMem.Matched || (ok && action != trMem.Action) {
				t.Fatalf("%s: Lookup (%d,%v) disagrees with trace (%d,%v)",
					name, action, ok, trMem.Action, trMem.Matched)
			}
			if fr.TotalNs <= 0 || fr.KeyHi != k.Hi || fr.KeyLo != k.Lo || fr.Action != trMem.Action ||
				fr.Matched != trMem.Matched || int(fr.Probes) != trMem.SRAMProbes || fr.BucketRead != trMem.BucketRead {
				t.Fatalf("%s: record %+v disagrees with trace %+v", name, fr, trMem)
			}
			stamped := 0
			for _, ns := range fr.StageNs {
				if ns > 0 {
					stamped++
				}
			}
			wantStages := 2
			if trMem.BucketRead {
				wantStages = 3
			}
			if stamped != wantStages {
				t.Fatalf("%s: record has %d timed stages, want %d: %v", name, stamped, wantStages, fr.StageNs)
			}
		}
	}
}

// TestConcurrentLookups exercises the instrumented hot path from many
// goroutines (run under -race -cpu 1,2,4 in CI): the engine is read-only at
// query time and the telemetry layer is lock-free, so parallel lookups must be
// safe and must not lose a count — checkBooked, for 16 goroutines.
func TestConcurrentLookups(t *testing.T) {
	testConcurrentLookups(t, 16, 2048, func(int) bool { return false })
}

// TestConcurrentMixedLookups: both booking sites share the stripes — half of
// 8 goroutines look their keys up one at a time and half in LookupBatch
// calls — and every count stays exact, every sampled series within g.
func TestConcurrentMixedLookups(t *testing.T) {
	testConcurrentLookups(t, 8, 4096, func(w int) bool { return w%2 == 1 })
}

// testConcurrentLookups runs per random keys from each of workers goroutines
// on one bucketized engine, goroutine w in LookupBatch calls of 256 keys if
// batched(w), and holds what they booked to checkBooked.
func testConcurrentLookups(t *testing.T, workers, per int, batched func(w int) bool) {
	rs := missingRuleSet(t, 400, 13)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		t.Fatal(err)
	}
	oracle := lpm.NewTrieMatcher(rs)
	const stride, batch = 128, 256
	setStride(t, stride)

	ks := make([][]keys.Value, workers)
	var matched uint64
	for w := range ks {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < per; i++ {
			k := randomKey(rng, 32)
			ks[w] = append(ks[w], k)
			if _, ok := oracle.Lookup(k); ok {
				matched++
			}
		}
	}
	before := readSeries()
	var wg sync.WaitGroup
	for w := range ks {
		wg.Add(1)
		go func(ks []keys.Value, batched bool) {
			defer wg.Done()
			if !batched {
				for _, k := range ks {
					e.Lookup(k)
				}
				return
			}
			var out []BatchResult
			for i := 0; i < len(ks); i += batch {
				out = e.LookupBatch(ks[i:i+batch], out)
			}
		}(ks[w], batched(w))
	}
	wg.Wait()
	checkBooked(t, before, readSeries(), booked{n: uint64(workers * per), matched: matched, g: uint64(workers),
		stride: stride, bucketized: true, batched: batched(1)})
}

// lookupBaseline is Lookup's bare pipeline with the counters taken out — the
// compiled plane's inference, bounded search and record answer, and nothing
// else — so Lookup less lookupBaseline is what the always-on telemetry costs
// a key: the stripe tick's peek and the flight recorder's check, the one lane
// add, and the sampled tail amortized over the keys that skip it
// (benchOverhead).
func (e *Engine) lookupBaseline(k keys.Value) (uint64, bool) {
	b, _ := e.comp.Search(k, e.comp.Predict(k))
	_, _, action, ok, _ := e.rec.answer(b, k)
	return action, ok
}

func benchEngine(b *testing.B, cfg Config) (*Engine, []keys.Value) {
	b.Helper()
	rs := randomRuleSet(b, 32, 20000, 42)
	e, err := Build(rs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	keysArr := make([]keys.Value, 1<<14)
	for i := range keysArr {
		keysArr[i] = randomKey(rng, 32)
	}
	return e, keysArr
}

// benchOverhead is what the always-on counters cost a key (make
// telemetry-overhead): Lookup against lookupBaseline on one engine and one key
// set, in alternating chunks of keys, the arm that goes first alternating too,
// so a change of machine speed or heap layout lands on both arms alike. It
// reports each arm's ns a key and overhead-ns/key, their difference.
func benchOverhead(b *testing.B, cfg Config) {
	e, ks := benchEngine(b, cfg)
	const chunk = 1 << 11
	var spent [2]time.Duration // Lookup, lookupBaseline
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for ; n < b.N; n += chunk {
		blk := ks[n&(len(ks)-1):][:chunk]
		for a := range 2 {
			arm := (a + n/chunk) & 1
			t0 := time.Now()
			if arm == 0 {
				for _, k := range blk {
					e.Lookup(k)
				}
			} else {
				for _, k := range blk {
					e.lookupBaseline(k)
				}
			}
			spent[arm] += time.Since(t0)
		}
	}
	perKey := func(d time.Duration) float64 { return float64(d) / float64(n) }
	b.ReportMetric(perKey(spent[0]), "instrumented-ns/key")
	b.ReportMetric(perKey(spent[1]), "baseline-ns/key")
	b.ReportMetric(perKey(spent[0]-spent[1]), "overhead-ns/key")
}

func BenchmarkLookupOverhead(b *testing.B)         { benchOverhead(b, quickBucketed()) }
func BenchmarkLookupOverheadSRAMOnly(b *testing.B) { benchOverhead(b, quickSRAMOnly()) }
