// Command lpmserve is the NeuroLPM serving daemon: it builds a sharded
// updatable engine for a rule-set (one shard by default) and serves its
// lookups and rule updates over the binary wire protocol, with the
// observability surface over HTTP — Prometheus-format /metrics backed by the
// telemetry registry, /debug/pprof, and one query's trace and flight record
// at /trace?key=.
//
// Usage:
//
//	lpmserve -rules rules.txt -width 32 [-bucket 8] [-addr :8080]
//	         [-shards N] [-drain 10s] [-flight-sample N] [-wire-addr :9090]
//	         [-verify]
//
// -wire-addr is where the binary wire protocol (DESIGN.md §17) listens, the
// daemon's one data path: length-prefixed frames over persistent TCP, no JSON,
// each connection answered on its own goroutine with the lookups one read
// delivered batched into one batch-plane call. The repository benchmark drives
// it (bash benchmark/run.sh --workload wire_open); one SIGINT/SIGTERM drains
// both listeners.
//
// Every lookup answers through the compiled float32 inference plane, the one
// arithmetic the engine runs and BENCHMARK.json measures (DESIGN.md §10).
//
// -shards N partitions the rule-set by top key bits into N independent
// sub-engines (the paper's §6 bank-parallel pipeline); the lookups one read of
// a connection delivers are grouped by shard and answered on its goroutine.
// At every shard count, the default of one included, wire updates land in the
// covered shards' live engines — and a shard whose engine the update
// overgrows is retrained and swapped before the update is acknowledged —
// without blocking readers.
//
// Endpoints (-addr, HTTP):
//
//	GET /lookup?key=10.1.2.3     one query (JSON), for a human asking
//	GET /trace?key=10.1.2.3      one query's paper units + timed flight record (JSON)
//	GET /metrics                 Prometheus text format (lpmtop's poll target)
//	GET /healthz                 liveness + engine summary (200 while up)
//	GET /debug/flightrec         the sampled flight-record ring (?n=)
//	GET /debug/slow              the worst-N slow-query log (?n=)
//	GET /debug/pprof/...         CPU/heap/goroutine profiles
//
// -flight-sample N routes 1 in N queries (N rounded to a power of two)
// through the flight recorder, stamping per-stage latencies into a fixed
// ring; 0 disables sampling. The default (256) costs under 2% at paper
// scale (experiment E26).
//
// The daemon stops on SIGINT/SIGTERM: the listeners close immediately and
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
	drain        time.Duration
	flightSample uint64
	wireAddr     string
}

// registerFlags declares lpmserve's whole command line on fs.
// TestFlagsAreTheNineDocumented holds the usage block above and every
// `lpmserve -x` spelled in the docs to this set.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.rules, "rules", "", "rule-set file (required)")
	fs.IntVar(&o.width, "width", 32, "key bit width")
	fs.IntVar(&o.bucket, "bucket", 8, "ranges per bucket; 0 = SRAM-only")
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.BoolVar(&o.verify, "verify", false, "verify every shard against the trie oracle before serving")
	fs.IntVar(&o.shards, "shards", 1, "partition the rule-set into this many sub-engines (power of two)")
	fs.DurationVar(&o.drain, "drain", serve.DefaultDrainTimeout, "how long to let in-flight requests finish on SIGINT/SIGTERM")
	fs.Uint64Var(&o.flightSample, "flight-sample", telemetry.DefaultSampleEvery, "flight-recorder sampling rate: time 1 in N queries through the stage stack (rounded to a power of two; 0 = off)")
	fs.StringVar(&o.wireAddr, "wire-addr", ":9090", "binary wire protocol listen address: every lookup and rule update (DESIGN.md §17)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	if o.rules == "" {
		fatal("-rules is required")
	}
	srv, info := load(o)
	telemetry.Flight.SetSampleEvery(o.flightSample)
	info["flight_sample"] = fmt.Sprint(telemetry.Flight.SampleEvery())
	telemetry.SetBuildInfo(info)

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatal("%v", err)
	}
	wl, err := net.Listen("tcp", o.wireAddr)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "lpmserve: wire protocol on %s\n", wl.Addr())
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "lpmserve: listening on %s\n", l.Addr())
	err = serve.ServeUnits(stop, o.drain,
		&serve.HTTPUnit{Listener: l, Handler: srv.Handler()}, serve.NewWireServer(srv, wl))
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintln(os.Stderr, "lpmserve: drained, shutting down")
}

// load reads the rule file and builds the server over it: the whole of
// lpmserve's start-up that grows with the rule count. The file is streamed
// into the rules, and the shards share them, so the rule-set is held once. It
// returns the neurolpm_build_info labels the build settles.
func load(o *options) (*serve.Server, map[string]string) {
	start := time.Now()
	rs, err := lpm.ReadRuleFile(o.width, o.rules)
	if err != nil {
		fatal("%v", err)
	}
	cfg := core.Config{BucketSize: o.bucket, Model: rqrmi.DefaultConfig()}
	srv := buildSharded(rs, cfg, o.shards, o.verify, time.Since(start))
	return srv, map[string]string{
		"shards": fmt.Sprint(o.shards),
		"rules":  fmt.Sprint(rs.Len()),
		"width":  fmt.Sprint(rs.Width),
	}
}

// buildSharded partitions the rule-set, trains a shard per part and wraps the
// result in a server. loaded is the time the rule file took to read and parse,
// logged beside the build's.
func buildSharded(rs *lpm.RuleSet, cfg core.Config, nShards int, verify bool, loaded time.Duration) *serve.Server {
	start := time.Now()
	sh, err := shard.BuildUpdatable(rs, cfg, nShards, 0)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(os.Stderr, "lpmserve: read and parsed %d rules in %v, trained them across %d shards in %v\n",
		rs.Len(), loaded.Round(time.Millisecond), nShards, time.Since(start).Round(time.Millisecond))
	if verify {
		if err := sh.Verify(); err != nil {
			fatal("verification failed: %v", err)
		}
		fmt.Fprintln(os.Stderr, "lpmserve: all shards verified against the trie oracle")
	}
	fmt.Fprintf(os.Stderr, "lpmserve: serving %d-bit LPM over %d shards\n", rs.Width, nShards)
	return serve.NewSharded(sh, telemetry.Default)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lpmserve: "+format+"\n", args...)
	os.Exit(1)
}
