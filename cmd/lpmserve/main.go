// Command lpmserve is the NeuroLPM serving daemon: it builds a sharded
// updatable engine for a rule-set (one shard by default) and serves lookups
// and rule updates over HTTP alongside the full observability surface —
// Prometheus-format /metrics backed by the telemetry registry, expvar at
// /debug/vars, /debug/pprof, and per-query traces at /trace?key=.
//
// Usage:
//
//	lpmserve -rules rules.txt -width 32 [-bucket 8] [-addr :8080]
//	         [-shards N] [-autocommit 100ms] [-stale-budget 30s] [-drain 10s]
//	         [-cache-bytes N] [-flight-sample N] [-wire-addr :9090] [-verify]
//
// -wire-addr additionally serves the binary wire protocol (DESIGN.md §17)
// on a second listener: length-prefixed frames over persistent TCP, no JSON
// on the hot path, each connection answered on its own goroutine with the
// lookups one read delivered batched into one batch-plane call. Drive it
// with cmd/lpmload; one SIGINT/SIGTERM drains both listeners.
//
// Every query endpoint answers through the compiled float32 inference plane
// — the arithmetic BENCHMARK.json measures. The reference and quantized
// planes (DESIGN.md §15) and the two-tier bucket store (§16) are reached from
// the library (Engine.LookupStack with a plane.StackConfig, core.Config.Tier),
// the planetest matrix and lpmbench -exp tiered; the daemon has no switch for
// them.
//
// -cache-bytes N puts an epoch-invalidated hot-key result cache (DESIGN.md
// §12) in front of the lookup pipeline: repeated keys answer from a
// set-associative result array, and every rule-table update invalidates the
// whole plane by bumping an epoch. /lookup and /trace report the per-query
// outcome in a "cache" field; 0 disables the plane entirely.
//
// -shards N partitions the rule-set by top key bits into N independent
// sub-engines (the paper's §6 bank-parallel pipeline); /batch groups a whole
// key batch by shard and answers it on the request's goroutine. At every shard
// count, the default of one included, POST /update and wire updates land in
// the covered shards — absorbed by the live engine, or buffered in its delta
// buffer for the background committer to fold into a retrained engine —
// without blocking readers.
//
// Endpoints:
//
//	GET /lookup?key=10.1.2.3     one query (JSON)
//	GET /batch?keys=a,b,c        many queries, one round-trip (also POST JSON)
//	POST /update                 one rule update (429 = back off)
//	GET /trace?key=10.1.2.3      one fully-annotated query span (JSON)
//	GET /metrics                 Prometheus text format
//	GET /healthz                 engine summary + per-shard health; 503 once a
//	                             shard has been failing past -stale-budget
//	GET /slo                     windowed tail-latency quantiles + per-shard
//	                             drift/hotness (lpmtop's poll target)
//	GET /debug/flightrec         the sampled flight-record ring (?n=)
//	GET /debug/slow              the worst-N slow-query log (?n=)
//	GET /debug/hotness           a shard's hottest buckets (?shard=&n=)
//	GET /debug/vars              expvar (includes the "neurolpm" registry)
//	GET /debug/pprof/...         CPU/heap/goroutine profiles
//
// -flight-sample N routes 1 in N queries (N rounded to a power of two)
// through the flight recorder, stamping per-stage latencies into a fixed
// ring; 0 disables sampling. The default (256) costs under 2% at paper
// scale (experiment E26).
//
// The daemon stops on SIGINT/SIGTERM: the listener closes immediately and
// in-flight requests drain (bounded by -drain) before the process exits.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/lpm"
	"neurolpm/internal/rqrmi"
	"neurolpm/internal/serve"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

// options is what the command line configures — one field per flag.
type options struct {
	rules        string
	width        int
	bucket       int
	addr         string
	verify       bool
	shards       int
	autocommit   time.Duration
	staleBudget  time.Duration
	drain        time.Duration
	cacheBytes   int
	flightSample uint64
	wireAddr     string
}

// registerFlags declares lpmserve's whole command line on fs.
// TestFlagsAreTheTwelveDocumented holds the usage block above and every
// `lpmserve -x` spelled in the docs to this set.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.rules, "rules", "", "rule-set file (required)")
	fs.IntVar(&o.width, "width", 32, "key bit width")
	fs.IntVar(&o.bucket, "bucket", 8, "ranges per bucket; 0 = SRAM-only")
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.BoolVar(&o.verify, "verify", false, "verify every shard against the trie oracle before serving")
	fs.IntVar(&o.shards, "shards", 1, "partition the rule-set into this many sub-engines (power of two)")
	fs.DurationVar(&o.autocommit, "autocommit", 100*time.Millisecond, "background commit interval for dirty shards (0 = never: inserts stay in the delta buffers)")
	fs.DurationVar(&o.staleBudget, "stale-budget", shard.DefaultStaleBudget, "how long a shard may keep failing commits before /healthz reports it stale (503)")
	fs.DurationVar(&o.drain, "drain", serve.DefaultDrainTimeout, "how long to let in-flight requests finish on SIGINT/SIGTERM")
	fs.IntVar(&o.cacheBytes, "cache-bytes", 0, "hot-key result cache size in bytes per cache (0 = off)")
	fs.Uint64Var(&o.flightSample, "flight-sample", telemetry.DefaultSampleEvery, "flight-recorder sampling rate: time 1 in N queries through the stage stack (rounded to a power of two; 0 = off)")
	fs.StringVar(&o.wireAddr, "wire-addr", "", "also serve the binary wire protocol on this address (DESIGN.md §17; empty = HTTP only)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	if o.rules == "" {
		fatal("-rules is required")
	}
	text, err := os.ReadFile(o.rules)
	if err != nil {
		fatal("%v", err)
	}
	rs, err := lpm.ParseRuleSet(o.width, string(text))
	if err != nil {
		fatal("%v", err)
	}

	cfg := core.Config{BucketSize: o.bucket, Model: rqrmi.DefaultConfig()}
	srv, sh := buildSharded(rs, cfg, o.shards, o.autocommit, o.staleBudget, o.verify)
	if o.cacheBytes > 0 {
		srv.UseResultCache(o.cacheBytes)
		fmt.Fprintf(os.Stderr, "lpmserve: hot-key result cache enabled (%d bytes per cache)\n", o.cacheBytes)
	}
	telemetry.Flight.SetSampleEvery(o.flightSample)
	srv.SetInfo("rules", fmt.Sprint(rs.Len()))
	srv.SetInfo("width", fmt.Sprint(rs.Width))
	srv.SetInfo("flight_sample", fmt.Sprint(telemetry.Flight.SampleEvery()))

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatal("%v", err)
	}
	units := []serve.Unit{&serve.HTTPUnit{Listener: l, Handler: srv.Handler()}}
	if o.wireAddr != "" {
		wl, err := net.Listen("tcp", o.wireAddr)
		if err != nil {
			fatal("%v", err)
		}
		units = append(units, serve.NewWireServer(srv, wl))
		srv.SetInfo("wire", "1")
		fmt.Fprintf(os.Stderr, "lpmserve: wire protocol on %s\n", wl.Addr())
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "lpmserve: listening on %s\n", l.Addr())
	if err := serve.ServeUnits(stop, o.drain, units...); err != nil {
		fatal("%v", err)
	}
	// A shard that never managed to commit its pending updates is an
	// operator-visible failure, not a silent shutdown.
	if err := sh.Close(); err != nil {
		fatal("%v", err)
	}
	fmt.Fprintln(os.Stderr, "lpmserve: drained, shutting down")
}

// buildSharded partitions the rule-set and starts the background committer.
func buildSharded(rs *lpm.RuleSet, cfg core.Config, nShards int, autocommit, staleBudget time.Duration, verify bool) (*serve.Server, *shard.ShardedUpdatable) {
	start := time.Now()
	sh, err := shard.BuildUpdatable(rs, cfg, nShards, 0)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "lpmserve: trained %d rules across %d shards in %v\n",
		rs.Len(), nShards, time.Since(start).Round(time.Millisecond))
	if verify {
		if err := sh.Verify(); err != nil {
			fatal("verification failed: %v", err)
		}
		fmt.Fprintln(os.Stderr, "lpmserve: all shards verified against the trie oracle")
	}
	sh.SetStaleBudget(staleBudget)
	if autocommit > 0 {
		sh.StartAutoCommit(autocommit, 0)
		fmt.Fprintf(os.Stderr, "lpmserve: background commit every %v (stale budget %v)\n",
			autocommit, sh.StaleBudget())
	}
	fmt.Fprintf(os.Stderr, "lpmserve: serving %d-bit LPM over %d shards\n", rs.Width, nShards)
	return serve.NewSharded(sh, telemetry.Default), sh
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpmserve: "+format+"\n", args...)
	os.Exit(1)
}
