package experiments

import (
	"fmt"
	"math/bits"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/workload"
)

// ObserveResult is E26, the observability-plane cost/fidelity experiment
// (DESIGN.md §13). It answers four questions about the flight-recorder &
// SLO plane:
//
//  1. What does always-on default-stride sampling cost the hot path? (single-key
//     and batched throughput, flight off vs on — the acceptance bar is <2%.)
//  2. Do the recorder's sampled latency quantiles agree with ground truth?
//     (the recorder's p99 vs a p99 from timing every query directly; log₂
//     buckets give factor-of-two quantiles, so agreement means the same or
//     an adjacent bucket.)
//  3. Is the drift gauge sane on a fresh model? (observed p99 probes must
//     sit inside the compiled probe bound, i.e. drift ≤ 1.)
//  4. Does the hotness sketch separate skewed from uniform traffic?
type ObserveResult struct {
	OffSingle, OnSingle float64 // Mlookups/s
	OffBatch, OnBatch   float64
	SingleOverheadPct   float64
	BatchOverheadPct    float64

	RecorderP99Ns float64 // flight recorder's sampled p99
	DirectP99Ns   float64 // p99 from timing every query into a local histogram
	P99Agree      bool    // same or adjacent log₂ bucket

	Drift      float64
	ProbeBound int
	ProbeP99   float64

	SkewZipf    float64
	SkewUniform float64

	Samples uint64 // flight records committed during the run
}

// observeBatch matches cacheBatchSize so the batch rows line up with E25.
const observeBatch = 256

// onOff labels an overhead row with the live default stride.
func onOff(what string) string {
	return fmt.Sprintf("%s (a=off, b=1:%d)", what, telemetry.DefaultSampleEvery)
}

// log2Bucket is the histogram's bucket index for a latency value.
func log2Bucket(ns float64) int {
	if ns < 1 {
		return 0
	}
	return bits.Len64(uint64(ns))
}

// Observe runs E26 on a bucketized RIPE-profile engine with a locality
// trace.
func Observe(sc Scale) (*ObserveResult, error) {
	rs, err := workload.Generate(workload.RIPE(), sc.Rules["ripe"], sc.Seed)
	if err != nil {
		return nil, err
	}
	eng, err := core.Build(rs, sc.engineConfig())
	if err != nil {
		return nil, err
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(sc.TraceLen, sc.Seed+99))
	if err != nil {
		return nil, err
	}

	res := &ObserveResult{}
	prevEvery := telemetry.Flight.SampleEvery()
	defer telemetry.Flight.SetSampleEvery(prevEvery)
	rec0 := telemetry.Flight.Recorded()

	// Overhead: flight off vs the default stride, single-key and batched. Each run closure
	// re-arms its own sampling mode so the interleaved rounds (drift-immune,
	// best-of-3 — see measureRatesInterleaved) compare only the recorder
	// cost. The off rows still pay the tick-and-mask test, i.e. they measure
	// the plane's disabled cost, not a build without it.
	var out []core.BatchResult
	rates := measureRatesInterleaved(trace, []func([]keys.Value){
		func(ks []keys.Value) {
			telemetry.Flight.SetSampleEvery(0)
			for _, k := range ks {
				eng.Lookup(k)
			}
		},
		func(ks []keys.Value) {
			telemetry.Flight.SetSampleEvery(telemetry.DefaultSampleEvery)
			for _, k := range ks {
				eng.Lookup(k)
			}
		},
		func(ks []keys.Value) {
			telemetry.Flight.SetSampleEvery(0)
			for lo := 0; lo < len(ks); lo += observeBatch {
				out = eng.LookupBatch(ks[lo:min(lo+observeBatch, len(ks))], out)
			}
		},
		func(ks []keys.Value) {
			telemetry.Flight.SetSampleEvery(telemetry.DefaultSampleEvery)
			for lo := 0; lo < len(ks); lo += observeBatch {
				out = eng.LookupBatch(ks[lo:min(lo+observeBatch, len(ks))], out)
			}
		},
	})
	res.OffSingle, res.OnSingle, res.OffBatch, res.OnBatch = rates[0], rates[1], rates[2], rates[3]
	res.SingleOverheadPct = 100 * (1 - res.OnSingle/res.OffSingle)
	res.BatchOverheadPct = 100 * (1 - res.OnBatch/res.OffBatch)

	// Quantile fidelity: replay the trace once with the recorder armed while
	// timing every single query into a local histogram of the same log₂
	// geometry. The recorder sees 1 in DefaultSampleEvery of exactly these
	// queries, so its
	// p99 must land in the same (or an adjacent) bucket as the all-queries
	// p99 — the factor-of-two resolution both sides share.
	telemetry.Flight.SetSampleEvery(telemetry.DefaultSampleEvery)
	direct := telemetry.NewHistogram()
	recBefore := telemetry.Default.Histogram("neurolpm_lookup_latency_ns", "").Snapshot()
	for _, k := range trace {
		t0 := time.Now()
		eng.Lookup(k)
		direct.Observe(uint64(time.Since(t0).Nanoseconds()))
	}
	recDelta := telemetry.Default.Histogram("neurolpm_lookup_latency_ns", "").Snapshot().Sub(recBefore)
	res.RecorderP99Ns = recDelta.Quantile(0.99)
	res.DirectP99Ns = direct.Snapshot().Quantile(0.99)
	db := log2Bucket(res.RecorderP99Ns) - log2Bucket(res.DirectP99Ns)
	res.P99Agree = db >= -1 && db <= 1

	// Drift sanity on the fresh model: the sampled queries above fed the
	// engine's drift meter; a just-trained model must run inside its own
	// compiled bound.
	res.Drift = eng.DriftMeter().Drift()
	res.ProbeBound = eng.DriftMeter().Bound()
	res.ProbeP99 = eng.DriftMeter().ProbeP99()

	// Hotness separation: the sketch (fed by the same sampled queries) must
	// report materially higher top-decile mass for Zipfian traffic than for
	// uniform. Each phase gets a fresh engine so the sketches are isolated.
	zipf, err := workload.GenerateTrace(rs, workload.TraceConfig{
		Queries: sc.TraceLen, ZipfS: 1.2, Locality: 0.9, Window: 256, Seed: sc.Seed + 4})
	if err != nil {
		return nil, err
	}
	uni := workload.UniformTrace(rs.Width, sc.TraceLen, sc.Seed+5)
	for _, ph := range []struct {
		trace []keys.Value
		skew  *float64
	}{{zipf, &res.SkewZipf}, {uni, &res.SkewUniform}} {
		e, err := core.Build(rs, sc.engineConfig())
		if err != nil {
			return nil, err
		}
		for _, k := range ph.trace {
			e.Lookup(k)
		}
		*ph.skew = e.HotSketch().Skew()
	}

	res.Samples = telemetry.Flight.Recorded() - rec0
	return res, nil
}

// ObserveTable renders E26.
func ObserveTable(r *ObserveResult) *Table {
	verdict := func(ok bool, yes, no string) string {
		if ok {
			return yes
		}
		return no
	}
	return &Table{
		Title:  "Flight-recorder & SLO plane: sampling overhead, quantile fidelity, drift and hotness sanity (ripe workload)",
		Header: []string{"row", "a", "b", "result"},
		Rows: [][]string{
			{onOff("single-key Mlookups/s"), f2(r.OffSingle), f2(r.OnSingle),
				fmt.Sprintf("overhead %.1f%%", r.SingleOverheadPct)},
			{onOff("batch Mlookups/s"), f2(r.OffBatch), f2(r.OnBatch),
				fmt.Sprintf("overhead %.1f%%", r.BatchOverheadPct)},
			{"p99 latency ns (a=all queries, b=recorder)", f1(r.DirectP99Ns), f1(r.RecorderP99Ns),
				verdict(r.P99Agree, "agree (within one log2 bucket)", "DISAGREE")},
			{"model drift (a=p99 probes, b=probe bound)", f1(r.ProbeP99), fi(r.ProbeBound),
				fmt.Sprintf("drift %.2f %s", r.Drift, verdict(r.Drift <= 1, "(inside bound)", "(OVER BOUND)"))},
			{"hotness skew (a=zipf1.2/loc0.9, b=uniform)", f2(r.SkewZipf), f2(r.SkewUniform),
				verdict(r.SkewZipf > r.SkewUniform, "separates", "NO SEPARATION")},
		},
		Notes: []string{
			fmt.Sprintf("DESIGN.md §13: 1-in-%d sampled flight records through the real plane stack; off rows still pay the disabled tick-and-mask test", telemetry.DefaultSampleEvery),
			"overhead is round-interleaved best-of-3 (drift-immune)",
			fmt.Sprintf("quantiles are log2-bucketed (factor-of-two); %d flight records committed during the run", r.Samples),
		},
	}
}
