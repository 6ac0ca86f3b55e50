package core

import (
	"math/rand"
	"sync"
	"testing"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/workload"
)

// BenchmarkBatchCompiled is LookupBatch(256) on a 20 K-rule engine over a
// trace whose keys repeat a 256-key hot set nine times in ten.
func BenchmarkBatchCompiled(b *testing.B) {
	rs := randomRuleSet(b, 32, 20000, 42)
	e, err := Build(rs, quickBucketed())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	hot := make([]keys.Value, 256)
	for i := range hot {
		hot[i] = randomKey(rng, 32)
	}
	ks := make([]keys.Value, 1<<14)
	for i := range ks {
		if rng.Float64() < 0.9 {
			ks[i] = hot[rng.Intn(len(hot))]
		} else {
			ks[i] = randomKey(rng, 32)
		}
	}
	var out []BatchResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 256 {
		lo := (i * 256) % (len(ks) - 256)
		out = e.LookupBatch(ks[lo:lo+256], out)
	}
}

// ripeTrace is one of the repository benchmark's key traces with the trie
// oracle's answer for every key.
type ripeTrace struct {
	name  string
	trace []keys.Value
	want  []BatchResult
}

// benchInputs are one profile's rules and key traces, made once a test binary
// and shared by every engine the benchmarks build over them.
type benchInputs struct {
	once sync.Once
	rs   *lpm.RuleSet
	tcs  []ripeTrace
	err  error
}

// inputs holds the repository benchmark's inputs (benchmark/inputs.go: 870 K
// ripe rules seed 1, the Zipf+locality trace on seed+1, the uniform one on
// seed+2) and the same traces over the full-scale Snort (48-bit) and IPv6
// (128-bit) rule-sets of the evaluation.
var inputs = map[string]*struct {
	p workload.Profile
	n int
	benchInputs
}{
	"ripe":  {p: workload.RIPE(), n: 870000},
	"snort": {p: workload.Snort(), n: 400000},
	"ipv6":  {p: workload.IPv6(), n: 200000},
}

// profileEngine builds an engine of k-range buckets over a profile's inputs.
func profileEngine(b *testing.B, profile string, k int) (*Engine, []ripeTrace) {
	in := inputs[profile]
	in.once.Do(func() { in.rs, in.tcs, in.err = traces(in.p, in.n) })
	if in.err != nil {
		b.Fatal(in.err)
	}
	cfg := DefaultConfig()
	cfg.BucketSize = k
	e, err := Build(in.rs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e, in.tcs
}

// traces generates n rules of profile p and the benchmark's two traces over
// them, with the trie oracle's answer for every key.
func traces(p workload.Profile, n int) (*lpm.RuleSet, []ripeTrace, error) {
	const seed, nKeys = 1, 1 << 20
	rs, err := workload.Generate(p, n, seed)
	if err != nil {
		return nil, nil, err
	}
	oracle := lpm.NewTrieMatcher(rs)
	zipf, err := workload.GenerateTrace(rs, workload.DefaultTrace(nKeys, seed+1))
	if err != nil {
		return nil, nil, err
	}
	tcs := []ripeTrace{{name: "zipf", trace: zipf}, {name: "uniform", trace: workload.UniformTrace(p.Width, nKeys, seed+2)}}
	for i := range tcs {
		tc := &tcs[i]
		tc.want = make([]BatchResult, len(tc.trace))
		for j, k := range tc.trace {
			tc.want[j].Action, tc.want[j].Matched = oracle.Lookup(k)
		}
	}
	return rs, tcs, nil
}

// reportRecords reports the engine's bucket count and the bytes of its
// records, the two sides of §7's bucket-size knob, and the entries of its
// action table, the one load a lookup makes past its record.
func reportRecords(b *testing.B, e *Engine) {
	b.ReportMetric(float64(e.dir.Len()), "buckets")
	b.ReportMetric(float64(4*len(e.rec.w))/(1<<20), "records_MiB")
	b.ReportMetric(float64(len(*e.rec.acts.Load())), "actions")
}

// BenchmarkBatchRipe870K is the batch kernel at the repository benchmark's
// scale and on its inputs: LookupBatch(256) with every answer held against
// the trie oracle's inside the loop, so a kernel that got faster by getting
// an answer wrong fails here.
func BenchmarkBatchRipe870K(b *testing.B) { benchBatch(b, "ripe", 8) }

// BenchmarkBatchRipe870KBucket16 is BenchmarkBatchRipe870K at K = 16: a
// record of two lines, and half the buckets.
func BenchmarkBatchRipe870KBucket16(b *testing.B) { benchBatch(b, "ripe", 16) }

// BenchmarkBatchSnort400K and BenchmarkBatchIPv6200K are
// BenchmarkBatchRipe870K at widths 48 and 128: records of 92 and 148 bytes,
// and 65 536 actions at width 48 where ripe and IPv6 have 64.
func BenchmarkBatchSnort400K(b *testing.B) { benchBatch(b, "snort", 8) }
func BenchmarkBatchIPv6200K(b *testing.B)  { benchBatch(b, "ipv6", 8) }

func benchBatch(b *testing.B, profile string, k int) {
	const block = 256
	e, tcs := profileEngine(b, profile, k)
	for _, tc := range tcs {
		b.Run(tc.name, func(b *testing.B) {
			var out []BatchResult
			b.ReportAllocs()
			b.ResetTimer()
			for i, pos := 0, 0; i < b.N; i, pos = i+block, pos+block {
				if pos+block > len(tc.trace) {
					pos = 0
				}
				out = e.LookupBatch(tc.trace[pos:pos+block], out)
				for j, r := range out {
					if r != tc.want[pos+j] {
						b.Fatalf("key %v: engine %+v, oracle %+v", tc.trace[pos+j], r, tc.want[pos+j])
					}
				}
			}
			reportRecords(b, e)
		})
	}
}

// BenchmarkLookupRipe870K is BenchmarkBatchRipe870K for the single-key path —
// Lookup, the `qps` phase of the benchmark's lib_* workloads — on the same
// inputs, every answer held against the oracle's inside the loop.
func BenchmarkLookupRipe870K(b *testing.B) { benchLookup(b, "ripe", 8) }

// BenchmarkLookupRipe870KBucket16 is BenchmarkLookupRipe870K at K = 16.
func BenchmarkLookupRipe870KBucket16(b *testing.B) { benchLookup(b, "ripe", 16) }

// BenchmarkLookupSnort400K and BenchmarkLookupIPv6200K are
// BenchmarkLookupRipe870K at widths 48 and 128.
func BenchmarkLookupSnort400K(b *testing.B) { benchLookup(b, "snort", 8) }
func BenchmarkLookupIPv6200K(b *testing.B)  { benchLookup(b, "ipv6", 8) }

func benchLookup(b *testing.B, profile string, k int) {
	e, tcs := profileEngine(b, profile, k)
	for _, tc := range tcs {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i, pos := 0, 0; i < b.N; i, pos = i+1, pos+1 {
				if pos == len(tc.trace) {
					pos = 0
				}
				a, ok := e.Lookup(tc.trace[pos])
				if w := tc.want[pos]; a != w.Action || ok != w.Matched {
					b.Fatalf("key %v: engine (%d,%v), oracle %+v", tc.trace[pos], a, ok, w)
				}
			}
			reportRecords(b, e)
		})
	}
}
