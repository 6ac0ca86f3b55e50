// Package load is the open-loop load driver behind cmd/lpmload: it replays
// a calibrated key trace (plus an optional update stream) against a serving
// endpoint over the binary wire protocol, the daemon's one data path, at a
// Poisson-scheduled offered rate, and reports offered vs.
// achieved qps and latency quantiles measured from each request's *scheduled*
// send time. Measuring from the schedule (not from the moment the request
// finally got written) keeps the driver honest under saturation: a server
// that falls behind shows queueing delay in its tail instead of silently
// slowing the clock (the coordinated-omission trap closed-loop drivers fall
// into). Rate 0 selects closed-loop mode — one outstanding request per
// connection — which measures best-case per-request latency instead.
package load

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/workload"
)

// Result is one expected answer for verification.
type Result struct {
	Action  uint64
	Matched bool
}

// Config parameterizes one load run.
type Config struct {
	Addr string
	// Conns is the number of persistent connections. 0 selects 1.
	Conns int
	// Rate is the offered rate in queries/sec across all connections,
	// scheduled as Poisson arrivals. 0 = closed loop (one outstanding
	// request per connection, as fast as the server answers).
	Rate float64
	// Duration bounds the send window; in-flight requests drain afterwards.
	Duration time.Duration
	// Trace is replayed round-robin (each connection strides through it).
	Trace []keys.Value
	// Expected, when non-nil, holds the oracle answer for each trace key;
	// every response is checked and disagreements count as mismatches.
	// Keys listed in SkipVerify are exempt (update-stream flap sites).
	Expected   []Result
	SkipVerify map[keys.Value]struct{}
	// Updates, when non-empty, is replayed on its own connection at the
	// stream's own schedule (workload.GenerateUpdates pacing), looping
	// until the send window closes.
	Updates []workload.Update
	// Seed drives the Poisson arrival schedule.
	Seed int64
}

// Report is the outcome of one run.
type Report struct {
	Conns      int
	Offered    float64 // scheduled qps over the send window
	Achieved   float64 // completed qps over the full run (send + drain)
	Sent       int64
	Done       int64
	Errors     int64
	Mismatches int64
	Updates    int64
	UpdateErrs int64
	P50        time.Duration
	P99        time.Duration
	P999       time.Duration
	Elapsed    time.Duration
}

func (r *Report) String() string {
	return fmt.Sprintf("conns=%d offered=%.0f/s achieved=%.0f/s done=%d errors=%d mismatches=%d updates=%d p50=%v p99=%v p999=%v",
		r.Conns, r.Offered, r.Achieved, r.Done, r.Errors, r.Mismatches, r.Updates, r.P50, r.P99, r.P999)
}

// job is one scheduled request: the trace index to send and the instant it
// was supposed to leave.
type job struct {
	idx   int
	sched time.Time
}

// runner is the shared bookkeeping the wire driver reports into.
type runner struct {
	cfg Config

	sent       atomic.Int64
	done       atomic.Int64
	errors     atomic.Int64
	mismatches atomic.Int64

	latMu sync.Mutex
	lats  []int64 // ns, from scheduled send time
}

func (r *runner) record(lat time.Duration) {
	r.done.Add(1)
	r.latMu.Lock()
	r.lats = append(r.lats, lat.Nanoseconds())
	r.latMu.Unlock()
}

// verify checks a response against the expected answer for trace index idx.
func (r *runner) verify(idx int, action uint64, matched bool) {
	exp := r.cfg.Expected
	if exp == nil {
		return
	}
	if r.cfg.SkipVerify != nil {
		if _, skip := r.cfg.SkipVerify[r.cfg.Trace[idx]]; skip {
			return
		}
	}
	e := exp[idx]
	if matched != e.Matched || (e.Matched && action != e.Action) {
		r.mismatches.Add(1)
	}
}

// Run executes one load run and blocks until the send window closed and
// in-flight requests drained (or timed out).
func Run(cfg Config) (*Report, error) {
	if len(cfg.Trace) == 0 {
		return nil, fmt.Errorf("load: empty trace")
	}
	if cfg.Expected != nil && len(cfg.Expected) != len(cfg.Trace) {
		return nil, fmt.Errorf("load: %d expected answers for %d trace keys", len(cfg.Expected), len(cfg.Trace))
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	r := &runner{cfg: cfg, lats: make([]int64, 0, 1<<16)}

	stopUpdates := make(chan struct{})
	var updWg sync.WaitGroup
	var updSent, updErrs atomic.Int64
	if len(cfg.Updates) > 0 {
		updWg.Add(1)
		go func() {
			defer updWg.Done()
			r.updateLoop(stopUpdates, &updSent, &updErrs)
		}()
	}

	start := time.Now()
	err := r.runWire(start)
	elapsed := time.Since(start)
	close(stopUpdates)
	updWg.Wait()
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Conns:      cfg.Conns,
		Sent:       r.sent.Load(),
		Done:       r.done.Load(),
		Errors:     r.errors.Load(),
		Mismatches: r.mismatches.Load(),
		Updates:    updSent.Load(),
		UpdateErrs: updErrs.Load(),
		Elapsed:    elapsed,
	}
	rep.Offered = float64(rep.Sent) / cfg.Duration.Seconds()
	if elapsed > 0 {
		rep.Achieved = float64(rep.Done) / elapsed.Seconds()
	}
	r.latMu.Lock()
	lats := r.lats
	r.latMu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.P50 = time.Duration(lats[len(lats)/2])
		rep.P99 = time.Duration(lats[len(lats)*99/100])
		rep.P999 = time.Duration(lats[len(lats)*999/1000])
	}
	return rep, nil
}

// schedule feeds Poisson-timed jobs into out until the send window closes,
// then closes out. Closed-loop mode (Rate ≤ 0) is handled by runWireClosed
// and never calls this.
func (r *runner) schedule(out chan<- job, start time.Time) {
	defer close(out)
	rng := rand.New(rand.NewSource(r.cfg.Seed))
	interval := func() time.Duration {
		return time.Duration(rng.ExpFloat64() / r.cfg.Rate * float64(time.Second))
	}
	next := start
	deadline := start.Add(r.cfg.Duration)
	idx := 0
	n := len(r.cfg.Trace)
	for {
		next = next.Add(interval())
		if next.After(deadline) {
			return
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		out <- job{idx: idx, sched: next}
		r.sent.Add(1)
		idx++
		if idx == n {
			idx = 0
		}
	}
}
