// lpmload is the open-loop load driver for a running lpmserve: it replays a
// calibrated (Zipfian, bursty) or uniform key trace — plus an optional
// rule-update stream — against its binary wire endpoint, the daemon's one
// data path, at a Poisson-scheduled offered rate, and reports offered vs.
// achieved qps and p50/p99/p999 latency measured from each request's
// scheduled send time (coordinated-omission-safe; see internal/load).
//
// The driver needs the same rule-set file the server was started with: it
// generates the query trace against it and, with -verify (on by default),
// checks every response against a local trie oracle. Update flap sites are
// chosen where the rule-set has no full-width rule, so the oracle stays
// valid for every other key; trace keys that land on a flap site are exempt
// from verification.
//
// Usage:
//
//	lpmgen -rules 100000 -out rules.txt
//	lpmserve -rules rules.txt -shards 8 -wire-addr :9090 &
//	lpmload -addr localhost:9090 -rate 200000 -duration 10s \
//	        -rules rules.txt -updates 1000 -update-rate 100
//
// Exit status is non-zero when any response disagreed with the oracle.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/load"
	"neurolpm/internal/lpm"
	"neurolpm/internal/workload"
)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpmload: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "", "server wire address host:port (required)")
	conns := flag.Int("conns", 8, "persistent connections")
	rate := flag.Float64("rate", 100000, "offered queries/sec, Poisson arrivals (0 = closed loop, one request in flight per connection)")
	duration := flag.Duration("duration", 5*time.Second, "send window")
	rulesPath := flag.String("rules", "", "rule-set file the server was started with (required)")
	width := flag.Int("width", 32, "key bit width")
	traceLen := flag.Int("trace", 200000, "distinct trace positions to replay")
	zipf := flag.Float64("zipf", 1.2, "Zipf skew of the calibrated trace (>1)")
	uniform := flag.Bool("uniform", false, "uniform random keys instead of the calibrated Zipfian trace")
	updates := flag.Int("updates", 0, "rule updates in the churn stream (0 = no updates)")
	updateRate := flag.Float64("update-rate", 100, "offered updates/sec for the churn stream")
	updateSites := flag.Int("update-sites", 16, "distinct flap prefixes the churn stream cycles through")
	verify := flag.Bool("verify", true, "check every response against a local trie oracle")
	seed := flag.Int64("seed", 1, "trace / schedule seed")
	flag.Parse()

	if *addr == "" {
		fatal("-addr is required")
	}
	if *rulesPath == "" {
		fatal("-rules is required (the same file the server loaded)")
	}
	rs, err := lpm.ReadRuleFile(*width, *rulesPath)
	if err != nil {
		fatal("%v", err)
	}

	var trace []keys.Value
	if *uniform {
		rng := rand.New(rand.NewSource(*seed))
		mask := keys.MaxValue(rs.Width)
		trace = make([]keys.Value, *traceLen)
		for i := range trace {
			trace[i] = keys.FromParts(rng.Uint64(), rng.Uint64()).And(mask)
		}
	} else {
		tc := workload.DefaultTrace(*traceLen, *seed)
		tc.ZipfS = *zipf
		trace, err = workload.GenerateTrace(rs, tc)
		if err != nil {
			fatal("%v", err)
		}
	}

	cfg := load.Config{
		Addr:     *addr,
		Conns:    *conns,
		Rate:     *rate,
		Duration: *duration,
		Trace:    trace,
		Seed:     *seed,
	}
	if *updates > 0 {
		stream, err := workload.GenerateUpdates(rs, workload.UpdateConfig{
			Count:      *updates,
			Rate:       *updateRate,
			Sites:      *updateSites,
			ActionBase: 1 << 25,
			Seed:       *seed | 1,
		})
		if err != nil {
			fatal("%v", err)
		}
		cfg.Updates = stream.Updates
		cfg.SkipVerify = stream.SiteSet()
	}
	if *verify {
		oracle := lpm.NewTrieMatcher(rs)
		expected := make([]load.Result, len(trace))
		for i, k := range trace {
			a, ok := oracle.Lookup(k)
			expected[i] = load.Result{Action: a, Matched: ok}
		}
		cfg.Expected = expected
	}

	mode := "open-loop"
	if *rate <= 0 {
		mode = "closed-loop"
	}
	fmt.Printf("lpmload: %s against %s — %d conns, %v window, %d trace keys, %d updates\n",
		mode, *addr, *conns, *duration, len(trace), *updates)
	rep, err := load.Run(cfg)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("offered   %10.0f qps\n", rep.Offered)
	fmt.Printf("achieved  %10.0f qps  (%d/%d completed in %v)\n", rep.Achieved, rep.Done, rep.Sent, rep.Elapsed.Round(time.Millisecond))
	fmt.Printf("latency   p50 %v  p99 %v  p999 %v (from scheduled send)\n", rep.P50, rep.P99, rep.P999)
	fmt.Printf("errors    %d requests, %d updates (of %d updates sent)\n", rep.Errors, rep.UpdateErrs, rep.Updates)
	if cfg.Expected != nil {
		fmt.Printf("oracle    %d mismatches\n", rep.Mismatches)
	}
	if rep.Mismatches > 0 {
		os.Exit(1)
	}
}
