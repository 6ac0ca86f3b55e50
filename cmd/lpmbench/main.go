// Command lpmbench regenerates the paper's tables and figures (DESIGN.md's
// experiment index E1–E15). By default it runs every experiment at quick
// scale; -full switches to paper-scale inputs (§10.1 rule counts, 10M-query
// traces), which takes tens of minutes.
//
// Usage:
//
//	lpmbench [-exp name] [-full] [-seed N] [-json out.json] [-compact]
//	         [-metrics addr] [-guard baseline.json]
//
// Experiments: fig2 fig6a fig6b fig7 fig8 fig9 fig10 table1 expansion
// worstcase binsearch bitwidth updates scaling headline modelsize tss dram
// replicas designspace worstbw emexpand sharded compiled faults cache
// observe tiered wire all
//
// -json writes every experiment's table plus a headline Lookup
// microbenchmark (ns/op, allocs/op) as machine-readable JSON, so the perf
// trajectory is tracked across PRs instead of living only in
// lpmbench_full.txt. -compact switches that JSON to a summary-only shape —
// no timestamp or per-experiment elapsed time, one pipe-joined line per
// table row — so committed BENCH_*.json files diff cleanly across PRs.
// -metrics serves /metrics and /debug/pprof while the run is in flight.
//
// -guard is the unified-stack bench gate (CI's bench-smoke job): it reruns
// E23 (compiled speedup), E25 (hot-key cache), E28's deterministic rows
// (tiered-store fast-tier saving and p99 headroom) and E29's deterministic
// bytes-per-query ratio (wire vs HTTP framing) at quick scale — all
// routed through the plane-stack executor — and compares every ratio
// against the named baseline JSON. Ratios compare machine-portably where
// absolute rates don't; any ratio regressing by more than 3%, or any
// oracle mismatch, exits nonzero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/experiments"
	"neurolpm/internal/serve"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/workload"
)

// jsonLatency is the flight recorder's sampled-latency distribution over one
// experiment: the delta of the cumulative neurolpm_lookup_latency_ns
// histogram across the experiment's run. Samples counts committed flight
// records (1 in N lookups), quantiles are log₂-bucket estimates
// (factor-of-two). Absent when the experiment drove no sampled lookups.
type jsonLatency struct {
	Samples uint64  `json:"samples"`
	P50Ns   float64 `json:"p50_ns"`
	P99Ns   float64 `json:"p99_ns"`
	P999Ns  float64 `json:"p999_ns"`
}

// jsonExperiment is one experiment's machine-readable result.
type jsonExperiment struct {
	Name      string       `json:"name"`
	Title     string       `json:"title"`
	Header    []string     `json:"header"`
	Rows      [][]string   `json:"rows"`
	Notes     []string     `json:"notes,omitempty"`
	Latency   *jsonLatency `json:"latency,omitempty"`
	ElapsedNs int64        `json:"elapsed_ns"`
}

// jsonBench is the headline Lookup microbenchmark. ns_per_op is the
// compiled single-key path (the default Engine.Lookup); the companion
// fields track the pre-compilation reference path, the batched compiled
// path, and the sharded batch fan-out, so BENCH_*.json records the whole
// query-plane spectrum across PRs.
type jsonBench struct {
	Rules            int     `json:"rules"`
	Bucketized       bool    `json:"bucketized"`
	Iterations       int     `json:"iterations"`
	NsPerOp          float64 `json:"ns_per_op"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	BytesPerOp       int64   `json:"bytes_per_op"`
	MLookupsPS       float64 `json:"mlookups_per_sec"`
	NsPerOpReference float64 `json:"ns_per_op_reference"`
	NsPerOpBatch     float64 `json:"ns_per_op_batch"`
	NsPerOpShardBat  float64 `json:"ns_per_op_sharded_batch"`
	CompiledSpeedup  float64 `json:"compiled_speedup"` // reference / compiled ns
}

// jsonReport is the -json output shape (BENCH_*.json across PRs).
type jsonReport struct {
	Scale       string           `json:"scale"`
	Seed        int64            `json:"seed"`
	GoVersion   string           `json:"go_version"`
	Timestamp   string           `json:"timestamp"`
	Experiments []jsonExperiment `json:"experiments"`
	LookupBench *jsonBench       `json:"lookup_bench,omitempty"`
}

// compactExperiment is one experiment in -compact form: the same numbers,
// but each table row rendered as a single pipe-joined line and the
// run-varying fields (timestamp, elapsed) dropped, so BENCH_*.json diffs
// across PRs show only measurement changes.
type compactExperiment struct {
	Name    string       `json:"name"`
	Title   string       `json:"title"`
	Header  string       `json:"header"`
	Rows    []string     `json:"rows"`
	Latency *jsonLatency `json:"latency,omitempty"`
}

// compactReport is the -compact -json output shape.
type compactReport struct {
	Scale       string              `json:"scale"`
	Seed        int64               `json:"seed"`
	GoVersion   string              `json:"go_version"`
	Experiments []compactExperiment `json:"experiments"`
	LookupBench *jsonBench          `json:"lookup_bench,omitempty"`
}

// compacted rewrites the full report into the summary-only shape.
func compacted(r jsonReport) compactReport {
	out := compactReport{Scale: r.Scale, Seed: r.Seed, GoVersion: r.GoVersion, LookupBench: r.LookupBench}
	for _, e := range r.Experiments {
		ce := compactExperiment{Name: e.Name, Title: e.Title, Header: strings.Join(e.Header, " | "), Latency: e.Latency}
		for _, row := range e.Rows {
			ce.Rows = append(ce.Rows, strings.Join(row, " | "))
		}
		out.Experiments = append(out.Experiments, ce)
	}
	return out
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (see doc comment)")
	full := flag.Bool("full", false, "paper-scale inputs (§10.1); slow")
	seed := flag.Int64("seed", 1, "workload seed")
	jsonPath := flag.String("json", "", "write results as machine-readable JSON to this file")
	compact := flag.Bool("compact", false, "with -json: summary-only deterministic shape (no timestamp/elapsed, one line per table row)")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/pprof on this address while running")
	guardPath := flag.String("guard", "", "rerun E23+E25+E28 quick and fail if any ratio regresses >3% vs this baseline JSON")
	flag.Parse()

	if *guardPath != "" {
		sc := experiments.QuickScale()
		sc.Seed = *seed
		if err := runGuard(sc, *guardPath); err != nil {
			fmt.Fprintf(os.Stderr, "lpmbench: guard: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, serve.MetricsHandler(telemetry.Default)); err != nil {
				fmt.Fprintf(os.Stderr, "lpmbench: metrics listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "lpmbench: metrics on http://%s/metrics\n", *metricsAddr)
	}

	sc := experiments.QuickScale()
	if *full {
		sc = experiments.PaperScale()
	}
	sc.Seed = *seed

	runners := map[string]func(experiments.Scale) (*experiments.Table, error){
		"fig2": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Fig2(sc)
			if err != nil {
				return nil, err
			}
			return r.Table(), nil
		},
		"fig6a": func(sc experiments.Scale) (*experiments.Table, error) {
			return experiments.Fig6aTable(experiments.Fig6a(sc.Seed)), nil
		},
		"fig6b": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Fig6b(sc)
			if err != nil {
				return nil, err
			}
			return experiments.Fig6bTable(r), nil
		},
		"fig7": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Fig7(sc)
			if err != nil {
				return nil, err
			}
			return experiments.Fig7Table(r), nil
		},
		"fig8": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Fig8(sc)
			if err != nil {
				return nil, err
			}
			return experiments.Fig8Table(r), nil
		},
		"fig9": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Fig9(sc)
			if err != nil {
				return nil, err
			}
			return experiments.Fig9Table(r), nil
		},
		"fig10": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Fig10(sc)
			if err != nil {
				return nil, err
			}
			return experiments.Fig10Table(r), nil
		},
		"table1": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Table1(sc)
			if err != nil {
				return nil, err
			}
			return experiments.Table1Table(r), nil
		},
		"expansion": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Expansion(sc)
			if err != nil {
				return nil, err
			}
			return experiments.ExpansionTable(r), nil
		},
		"worstcase": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.WorstCase(sc)
			if err != nil {
				return nil, err
			}
			return experiments.WorstCaseTable(r), nil
		},
		"binsearch": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.VsBinarySearch(sc)
			if err != nil {
				return nil, err
			}
			return experiments.VsBinarySearchTable(r), nil
		},
		"bitwidth": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Bitwidth(sc)
			if err != nil {
				return nil, err
			}
			return experiments.BitwidthTable(r), nil
		},
		"updates": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Updates(sc)
			if err != nil {
				return nil, err
			}
			return experiments.UpdatesTable(r), nil
		},
		"scaling": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Scaling(sc)
			if err != nil {
				return nil, err
			}
			return experiments.ScalingTable(r), nil
		},
		"headline": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Headline(sc)
			if err != nil {
				return nil, err
			}
			return experiments.HeadlineTable(r), nil
		},
		"modelsize": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.ModelSize(sc)
			if err != nil {
				return nil, err
			}
			return experiments.ModelSizeTable(r), nil
		},
		"tss": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.TSSSensitivity(sc)
			if err != nil {
				return nil, err
			}
			return experiments.TSSSensitivityTable(r), nil
		},
		"dram": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.DRAMPipeline(sc)
			if err != nil {
				return nil, err
			}
			return experiments.DRAMPipelineTable(r), nil
		},
		"replicas": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Replicas(sc)
			if err != nil {
				return nil, err
			}
			return experiments.ReplicasTable(r), nil
		},
		"emexpand": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.EMExpansion(sc)
			if err != nil {
				return nil, err
			}
			return experiments.EMExpansionTable(r), nil
		},
		"worstbw": func(sc experiments.Scale) (*experiments.Table, error) {
			return experiments.WorstCaseBandwidthTable(experiments.WorstCaseBandwidth()), nil
		},
		"designspace": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.DesignSpace(sc)
			if err != nil {
				return nil, err
			}
			return experiments.DesignSpaceTable(r), nil
		},
		"sharded": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.ShardedThroughput(sc)
			if err != nil {
				return nil, err
			}
			return experiments.ShardedThroughputTable(r), nil
		},
		"compiled": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.CompiledSpeedup(sc)
			if err != nil {
				return nil, err
			}
			return experiments.CompiledSpeedupTable(r), nil
		},
		"faults": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.FaultStorm(sc)
			if err != nil {
				return nil, err
			}
			return experiments.FaultsTable(r), nil
		},
		"cache": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.CacheHotKey(sc)
			if err != nil {
				return nil, err
			}
			return experiments.CacheHotKeyTable(r), nil
		},
		"observe": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Observe(sc)
			if err != nil {
				return nil, err
			}
			return experiments.ObserveTable(r), nil
		},
		"tiered": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Tiered(sc)
			if err != nil {
				return nil, err
			}
			return experiments.TieredTable(r), nil
		},
		"wire": func(sc experiments.Scale) (*experiments.Table, error) {
			r, err := experiments.Wire(sc)
			if err != nil {
				return nil, err
			}
			return experiments.WireTable(r), nil
		},
	}
	order := []string{
		"fig2", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10",
		"table1", "expansion", "worstcase", "binsearch", "bitwidth",
		"updates", "scaling", "headline", "modelsize", "tss", "dram", "replicas", "designspace", "worstbw", "emexpand",
		"sharded", "compiled", "faults", "cache", "observe", "tiered", "wire",
	}

	names := order
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "lpmbench: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		names = []string{*exp}
	}
	scaleName := "quick"
	if *full {
		scaleName = "paper"
	}
	report := jsonReport{
		Scale:     scaleName,
		Seed:      *seed,
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	fmt.Printf("# lpmbench scale=%s seed=%d\n\n", scaleName, *seed)
	// latHist is the flight recorder's cumulative latency histogram; the
	// snapshot delta across each experiment yields that experiment's sampled
	// tail-latency row (see jsonLatency).
	latHist := telemetry.Default.Histogram("neurolpm_lookup_latency_ns", "")
	for _, name := range names {
		start := time.Now()
		latBefore := latHist.Snapshot()
		tab, err := runners[name](sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpmbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		fmt.Print(tab.Render())
		fmt.Printf("(%s in %v)\n\n", name, elapsed.Round(time.Millisecond))
		je := jsonExperiment{
			Name:      name,
			Title:     tab.Title,
			Header:    tab.Header,
			Rows:      tab.Rows,
			Notes:     tab.Notes,
			ElapsedNs: elapsed.Nanoseconds(),
		}
		if d := latHist.Snapshot().Sub(latBefore); d.Total > 0 {
			je.Latency = &jsonLatency{
				Samples: d.Total,
				P50Ns:   d.Quantile(0.50),
				P99Ns:   d.Quantile(0.99),
				P999Ns:  d.Quantile(0.999),
			}
		}
		report.Experiments = append(report.Experiments, je)
	}

	if *jsonPath != "" {
		bench, err := lookupBench(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpmbench: lookup bench: %v\n", err)
			os.Exit(1)
		}
		report.LookupBench = bench
		fmt.Printf("lookup bench: %.1f ns/op compiled (%.1f reference, %.2fx), %.1f ns/op batched, %.1f ns/op sharded-batch, %d allocs/op\n",
			bench.NsPerOp, bench.NsPerOpReference, bench.CompiledSpeedup,
			bench.NsPerOpBatch, bench.NsPerOpShardBat, bench.AllocsPerOp)
		var toWrite any = report
		if *compact {
			toWrite = compacted(report)
		}
		data, err := json.MarshalIndent(toWrite, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "lpmbench: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "lpmbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lpmbench: wrote %s\n", *jsonPath)
	}
}

// lookupBench measures the instrumented hot path with testing.Benchmark: a
// RIPE-profile bucketized engine queried with a locality trace — the ns/op
// and allocs/op that BENCH_*.json tracks across PRs.
func lookupBench(sc experiments.Scale) (*jsonBench, error) {
	n := sc.Rules["ripe"]
	if n <= 0 {
		n = 40000
	}
	rs, err := workload.Generate(workload.RIPE(), n, sc.Seed)
	if err != nil {
		return nil, err
	}
	eng, err := core.Build(rs, core.Config{BucketSize: 8, Model: sc.Model})
	if err != nil {
		return nil, err
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(1<<16, sc.Seed+99))
	if err != nil {
		return nil, err
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng.Lookup(trace[i&(1<<16-1)])
		}
	})
	refRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.LookupReference(trace[i&(1<<16-1)])
		}
	})
	const batchN = 256
	var out []core.BatchResult
	batchRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i += batchN {
			lo := i & (1<<16 - 1) & ^(batchN - 1)
			out = eng.LookupBatch(trace[lo:lo+batchN], out)
		}
	})
	sh, err := shard.BuildUpdatable(rs, core.Config{BucketSize: 8, Model: sc.Model}, 4, 0)
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	shardRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i += batchN {
			lo := i & (1<<16 - 1) & ^(batchN - 1)
			sh.LookupBatch(trace[lo : lo+batchN])
		}
	})
	ns := float64(res.NsPerOp())
	refNs := float64(refRes.NsPerOp())
	return &jsonBench{
		Rules:            rs.Len(),
		Bucketized:       eng.Bucketized(),
		Iterations:       res.N,
		NsPerOp:          ns,
		AllocsPerOp:      res.AllocsPerOp(),
		BytesPerOp:       res.AllocedBytesPerOp(),
		MLookupsPS:       1e3 / ns,
		NsPerOpReference: refNs,
		NsPerOpBatch:     float64(batchRes.NsPerOp()),
		NsPerOpShardBat:  float64(shardRes.NsPerOp()),
		CompiledSpeedup:  refNs / ns,
	}, nil
}
