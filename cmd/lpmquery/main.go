// Command lpmquery serves queries against a rule-set with a NeuroLPM
// engine, optionally reusing a model trained by lpmtrain, and reports
// throughput and per-query access statistics. Without -queries it replays a
// synthetic locality trace.
//
// Usage:
//
//	lpmquery -rules rules.txt -width 32 -model model.bin -n 1000000
//	lpmquery -rules rules.txt -queries trace.txt
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"time"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/serve"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/workload"
)

func main() {
	rulesPath := flag.String("rules", "", "rule-set file (required)")
	width := flag.Int("width", 32, "key bit width")
	bucket := flag.Int("bucket", 8, "ranges per bucket; 0 = SRAM-only")
	modelPath := flag.String("model", "", "model file from lpmtrain (skips training)")
	queriesPath := flag.String("queries", "", "trace file (one hex key per line)")
	n := flag.Int("n", 1000000, "synthetic trace length when -queries is absent")
	sramMB := flag.Int("sram", 0, "emulate a cache of this many MB in front of DRAM (0 = uncached accounting)")
	seed := flag.Int64("seed", 1, "trace seed")
	oracle := flag.Bool("oracle", false, "cross-check every result against the trie oracle")
	metricsAddr := flag.String("metrics", "", "serve /metrics and /debug/pprof on this address while running")
	flag.Parse()

	if *metricsAddr != "" {
		go func() {
			if err := http.ListenAndServe(*metricsAddr, serve.MetricsHandler(telemetry.Default)); err != nil {
				fmt.Fprintf(os.Stderr, "lpmquery: metrics listener: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "lpmquery: metrics on http://%s/metrics\n", *metricsAddr)
	}

	if *rulesPath == "" {
		fatal("-rules is required")
	}
	rs, err := lpm.ReadRuleFile(*width, *rulesPath)
	if err != nil {
		fatal("%v", err)
	}

	var eng *core.Engine
	cfg := core.Config{BucketSize: *bucket, Model: rqrmi.DefaultConfig()}
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			fatal("%v", err)
		}
		model, err := rqrmi.ReadModel(f)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
		eng, err = core.BuildWithModel(rs, cfg, model, false)
		if err != nil {
			fatal("%v", err)
		}
	} else {
		start := time.Now()
		eng, err = core.Build(rs, cfg)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "lpmquery: trained in %v\n", time.Since(start).Round(time.Millisecond))
	}

	var trace []keys.Value
	if *queriesPath != "" {
		f, err := os.Open(*queriesPath)
		if err != nil {
			fatal("%v", err)
		}
		trace, err = workload.ReadTrace(f, *width)
		f.Close()
		if err != nil {
			fatal("%v", err)
		}
	} else {
		trace, err = workload.GenerateTrace(rs, workload.DefaultTrace(*n, *seed))
		if err != nil {
			fatal("%v", err)
		}
	}

	var mem cachesim.Mem = &cachesim.Uncached{}
	var cache *cachesim.Cache
	if *sramMB > 0 {
		budget := *sramMB*1024*1024 - eng.SRAMUsage().Total
		if budget <= 0 {
			fatal("SRAM budget of %dMB is below the engine's static footprint (%d bytes)", *sramMB, eng.SRAMUsage().Total)
		}
		cache, err = cachesim.New(cachesim.DefaultConfig(budget))
		if err != nil {
			fatal("%v", err)
		}
		mem = cache
	}

	var ref lpm.Matcher
	if *oracle {
		ref = lpm.NewTrieMatcher(rs)
	}

	matched := 0
	var probes uint64
	start := time.Now()
	for _, k := range trace {
		tr := eng.LookupMem(k, mem)
		if tr.Matched {
			matched++
		}
		probes += uint64(tr.SRAMProbes)
		if ref != nil {
			want, wantOK := ref.Lookup(k)
			if wantOK != tr.Matched || (wantOK && want != tr.Action) {
				fatal("MISMATCH at %v: engine (%d,%v), oracle (%d,%v)", k, tr.Action, tr.Matched, want, wantOK)
			}
		}
	}
	elapsed := time.Since(start)

	fmt.Printf("queries:      %d (%.1f%% matched)\n", len(trace), 100*float64(matched)/float64(len(trace)))
	fmt.Printf("elapsed:      %v (%.2f Mq/s software)\n", elapsed.Round(time.Millisecond),
		float64(len(trace))/elapsed.Seconds()/1e6)
	fmt.Printf("SRAM probes:  %.2f per query\n", float64(probes)/float64(len(trace)))
	var st cachesim.Stats
	if cache != nil {
		st = cache.Stats()
	} else {
		st = mem.(*cachesim.Uncached).Stats()
	}
	if st.Accesses > 0 {
		fmt.Printf("DRAM:         %.3f misses/query, %.2f bytes/query\n",
			float64(st.Misses)/float64(len(trace)), float64(st.Bytes)/float64(len(trace)))
	} else {
		fmt.Println("DRAM:         none (SRAM-only design)")
	}
	if *oracle {
		fmt.Println("oracle:       all results verified")
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpmquery: "+format+"\n", args...)
	os.Exit(1)
}
