package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// rounds is how many times a run sets up, warms up and measures. Each round
// gets a fresh engine or a fresh lpmserve child and a third of the measured
// time; setup_s is the median over the rounds' set-ups and every other metric
// is taken over the windows of all rounds together, so no single process's
// memory layout or thread arrangement decides the run. A traced run has one
// round.
const rounds = 3

// stopwatch notes how long each phase of a run took, for the report.
type stopwatch struct {
	last time.Time
	b    strings.Builder
}

func (s *stopwatch) lap(name string) {
	now := time.Now()
	if !s.last.IsZero() {
		fmt.Fprintf(&s.b, " %s %.1fs", name, now.Sub(s.last).Seconds())
	}
	s.last = now
}

// run is one run of one workload.
type run struct {
	cfg       runConfig
	in        *inputs
	allowed   cpuSet        // the CPUs set-up runs on
	roundSpan time.Duration // measured time per round, whole windows
	vals      map[string]float64
	notes     []string
	res       result
	clock     stopwatch
}

// runWorkload performs one run: inputs from the seed, then rounds of set-up,
// warm-up and measured span, verification, and the report.
func runWorkload(sp *spec, cfg runConfig) (*result, error) {
	r := &run{cfg: cfg, vals: make(map[string]float64)}
	r.clock.lap("")
	var err error
	if r.in, err = makeInputs(cfg.seed, cfg.rules, cfg.keys, cfg.workload == "lib_uniform"); err != nil {
		return nil, err
	}
	r.clock.lap("inputs")
	if r.allowed, err = allowedCPUs(); err != nil {
		return nil, err
	}
	// Warm-up and measured span are whole windows, so slices keep their turn.
	window := wireWindow
	if isLib(cfg.workload) {
		window = libWindow
	}
	r.cfg.warm = (cfg.warm + window - 1) / window * window
	r.roundSpan = cfg.span / rounds / window * window
	if r.roundSpan < window {
		return nil, fmt.Errorf("%v measured is under one %v window in each of %d rounds", cfg.span, window, rounds)
	}

	defs := sp.EndToEnd
	var led *ledger
	if cfg.trace {
		defs = sp.PerLayer
		for _, d := range defs {
			r.vals[d.Name] = 0 // a layer the workload never enters reports 0
		}
		if led, err = r.ledger(); err != nil {
			return nil, err
		}
	}
	switch {
	case !isLib(cfg.workload):
		err = r.wire()
	case !cfg.trace:
		err = r.lib()
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		dir := filepath.Join(cfg.scratch, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := led.tr.write(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		r.notes = append(r.notes, fmt.Sprintf("spans: %d written to %s", len(led.tr.spans), path))
	}
	r.clock.lap("wrap-up")
	if miss := missing(defs, r.vals); len(miss) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(miss, ", "))
	}
	r.notes = append(r.notes, "phases:"+r.clock.b.String())
	r.res.Metrics = report(r.cfg, defs, r.vals, r.notes)
	r.res.Correct = r.res.Failed == 0 && r.res.Attempted > 0
	fmt.Printf("attempted=%d failed=%d failed_share=%g\n", r.res.Attempted, r.res.Failed,
		float64(r.res.Failed)/float64(max(r.res.Attempted, 1)))
	return &r.res, nil
}

// ledger runs the part of a traced run that needs no server and returns it
// for its spans.
func (r *run) ledger() (*ledger, error) {
	lib := &libOutcome{}
	if err := buildEngine(r.in, lib); err != nil {
		return nil, err
	}
	vals := r.vals
	led := &ledger{in: r.in, seed: r.cfg.seed, engine: lib.engine, m: vals, tr: newTracer()}
	if err := led.run(lib.setups[0]); err != nil {
		return nil, err
	}
	r.clock.lap("ledger")
	r.res.Attempted += led.checked
	r.res.Failed += led.wrong
	children := vals["rqrmi.predict_ns"] + vals["rqrmi.search_ns"] + vals["bucket.search_ns"] + vals["ranges.action_ns"]
	r.notes = append(r.notes, fmt.Sprintf(
		"closure lib: children %.1f + self %.1f = %.1f ns/key vs traced core.lookup_ns %.1f; untraced %.1f (overhead %.3f)",
		children, vals["core.lookup_self_ns"], children+vals["core.lookup_self_ns"],
		vals["core.lookup_ns"], led.untracedNs, vals["trace.overhead_share"]))
	return led, nil
}

// timings fills the end-to-end timings: each of the workload's windows over
// the reference's window beside it, times the reference's nominal value, and
// the median over windows of that. A rate the workload's schedule fixes (the
// open loops: nominal qps 0) is left as measured. CPU time is per operation
// over the whole measured span on both sides.
func (r *run) timings(ws, ref *windowStats, cpuUs, refCPUUs float64) {
	nom := nominal[r.cfg.workload]
	r.vals["qps"] = against(ws.QPS, ref.QPS, nom.qps)
	r.vals["p50_us"] = against(ws.P50, ref.P50, nom.p50Us)
	r.vals["cpu_us_per_lookup"] = cpuUs
	if refCPUUs > 0 {
		r.vals["cpu_us_per_lookup"] = cpuUs / refCPUUs * nom.cpuUs
	}
	r.notes = append(r.notes,
		fmt.Sprintf("as measured:  qps %.6g  p50 %.4f us  p99 %.4f us  cpu %.4f us/lookup", median(ws.QPS), median(ws.P50), median(ws.P99), cpuUs),
		fmt.Sprintf("reference:    qps %.6g  p50 %.4f us  p99 %.4f us  cpu %.4f us/op", median(ref.QPS), median(ref.P50), median(ref.P99), refCPUUs),
		fmt.Sprintf("its nominal:  qps %.6g  p50 %.4f us  cpu %.4f us/op", nom.qps, nom.p50Us, nom.cpuUs))
}

// lib runs a library workload's rounds: Build unconfined, then the measured
// windows on one CPU.
func (r *run) lib() error {
	cpu, _ := placement(r.cfg.workload, r.allowed)
	r.in.oracle = nil // every answer it owed is in want by now
	ref := newRefTable(r.in.rs)
	out := &libOutcome{}
	for round := 0; round < rounds; round++ {
		if err := pinProcess(r.allowed); err != nil {
			return err
		}
		if err := buildEngine(r.in, out); err != nil {
			return err
		}
		r.clock.lap("build")
		if err := pinProcess(cpu); err != nil {
			return err
		}
		runLib(r.in, ref, r.cfg.warm, r.roundSpan, out)
		r.clock.lap("measure")
	}
	ws := &out.ws
	if len(ws.QPS) == 0 {
		return fmt.Errorf("%s: no window completed", r.cfg.workload)
	}
	r.vals["setup_s"] = median(out.setups)
	r.timings(ws, &out.ref, out.cpuUs/float64(out.keys), out.refCPUUs/float64(out.refKeys))
	r.vals["mem_mb"] = median(out.heapMiB)
	r.vals["sram_bytes_per_rule"] = out.sramBytes / float64(r.in.rs.Len())
	r.res.Attempted += out.keys
	r.res.Failed += out.wrong
	r.notes = append(r.notes,
		fmt.Sprintf("cores: set up on %v, measured on %v", r.allowed.list(), cpu.list()),
		fmt.Sprintf("rounds=%d windows=%d batch-call samples=%d whole-run p99.9=%.1f us (informational)",
			rounds, len(ws.QPS), len(ws.all), ws.p999()),
		perWindow(ws, &out.ref))
	return nil
}

const perWindowHeader = "per window qps | p50 us | p99 us | reference qps | reference p50 us:"

// perWindow renders a run's per-window values as measured, so a disturbed
// window shows.
func perWindow(ws, ref *windowStats) string {
	var b strings.Builder
	b.WriteString(perWindowHeader)
	for _, vals := range [][]float64{ws.QPS, ws.P50, ws.P99, ref.QPS, ref.P50} {
		b.WriteString("\n ")
		for _, v := range vals {
			fmt.Fprintf(&b, " %.5g", v)
		}
	}
	return b.String()
}

// wireTotals is what a serving workload measured, summed over its rounds.
type wireTotals struct {
	ws, ref windowStats
	setups  []float64 // exec → healthy, s
	hwmMiB  []float64 // each child's peak RSS at the end of its span
	sram    float64
	usage   procUsage          // the server children's use over the measured spans
	echoCPU float64            // the echo children's CPU time over them, µs
	metrics map[string]float64 // /metrics deltas over them (traced runs)

	completed, answered, scheduled int64 // lookups, by the measured spans
	echoed                         int64 // frames the echo children returned in them
	ackUs                          []float64
	late                           []int64
	torn                           int64
}

func isOpen(workload string) bool { return workload == "wire_open" || workload == "wire_churn" }

// wire runs a serving workload's rounds, each against a fresh lpmserve child.
func (r *run) wire() error {
	cfg := r.cfg
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rules := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rules, []byte(r.in.rs.Format()), 0o644); err != nil {
		return err
	}
	bin := cfg.lpmserve
	if bin == "" {
		if bin, err = buildServer(cfg.root, filepath.Join(cfg.scratch, "bin")); err != nil {
			return err
		}
	}
	r.clock.lap("files")
	n := rounds
	if cfg.trace {
		n = 1
	}
	// Every round's child is fresh, so the same update stream is new to it.
	var ch *churn
	if cfg.workload == "wire_churn" {
		if ch, err = makeChurn(r.in, cfg.seed, r.cfg.warm+r.roundSpan); err != nil {
			return err
		}
	}
	r.in.oracle = nil // every answer it owed is in want and ch by now
	tot := &wireTotals{metrics: make(map[string]float64)}
	for round := 0; round < n; round++ {
		if err := r.wireRound(bin, rules, ch, round, tot); err != nil {
			return err
		}
	}
	if tot.completed == 0 || len(tot.ws.QPS) == 0 {
		return fmt.Errorf("%s: no lookup completed in the measured span", cfg.workload)
	}

	ws := &tot.ws
	loadCPU, serverCPUs := placement(cfg.workload, r.allowed)
	r.notes = append(r.notes,
		fmt.Sprintf("cores: load generator on %v, server and echo child set up and serving on %v", loadCPU.list(), serverCPUs.list()),
		fmt.Sprintf("rounds=%d windows=%d samples=%d whole-run p99.9=%.1f us (informational)", n, len(ws.QPS), len(ws.all), ws.p999()),
		perWindow(ws, &tot.ref))
	sortInt64s(tot.late)
	lateP50, lateP99 := float64(percentile(tot.late, 0.50))/1e3, float64(percentile(tot.late, 0.99))/1e3
	achieved := float64(tot.answered) / float64(tot.scheduled)
	if isOpen(cfg.workload) {
		// Lateness is inside every latency (they run from due time), so it
		// cannot hide; a run is invalid when the generator fell short, or ran
		// late by more than both 500 us and a tenth of the p99 it reports.
		verdict := "valid"
		if achieved < 0.98 || (lateP99 > 500 && lateP99 > median(ws.P99)/10) {
			verdict = "INVALID: the load generator, not the server, shaped this run"
		}
		r.notes = append(r.notes, fmt.Sprintf("loadgen: late p50 %.1f us, p99 %.1f us, achieved %.4f of %d scheduled: %s",
			lateP50, lateP99, achieved, tot.scheduled, verdict))
	}

	vals := r.vals
	ops := float64(tot.completed)
	if !cfg.trace {
		vals["setup_s"] = median(tot.setups)
		var refCPU float64
		if tot.echoed > 0 {
			refCPU = tot.echoCPU / float64(tot.echoed)
		}
		r.timings(ws, &tot.ref, (tot.usage.userUs+tot.usage.sysUs)/ops, refCPU)
		vals["mem_mb"] = median(tot.hwmMiB)
		vals["sram_bytes_per_rule"] = tot.sram / float64(r.in.rs.Len())
		return nil
	}
	vals["serve.cpu_user_us_per_op"] = tot.usage.userUs / ops
	vals["serve.cpu_sys_us_per_op"] = tot.usage.sysUs / ops
	vals["serve.ctxsw_per_op"] = tot.usage.ctxsw / ops
	if d := tot.metrics["neurolpm_wire_coalesce_dispatches_total"]; d > 0 {
		vals["serve.keys_per_dispatch"] = tot.metrics["neurolpm_wire_lookups_total"] / d
	}
	sort.Float64s(tot.ackUs)
	if n := len(tot.ackUs); n > 0 {
		vals["serve.update_ack_p50_us"] = tot.ackUs[n/2]
		vals["serve.update_ack_p99_us"] = tot.ackUs[n*99/100]
	}
	vals["loadgen.late_p50_us"] = lateP50
	vals["loadgen.late_p99_us"] = lateP99
	vals["loadgen.achieved_share"] = achieved
	vals["core.torn_reads"] = float64(tot.torn)
	vals["serve.p99_us"] = median(ws.P99)
	vals["serve.within_limit_share"] = median(ws.Within)
	echo := median(tot.ref.P50)
	vals["loopback.echo_p50_us"] = echo
	p50 := median(ws.P50)
	codec := (2*vals["wire.encode_ns"] + 2*vals["wire.decode_ns"]) / 1e3
	known := echo + codec + vals["shard.lookup_ns"]/1e3
	vals["serve.residual_us"] = p50 - known
	r.notes = append(r.notes, fmt.Sprintf(
		"closure wire: echo %.2f + codec %.3f + shard.lookup %.3f + serve.residual %.2f = %.2f us vs client p50 %.2f us",
		echo, codec, vals["shard.lookup_ns"]/1e3, vals["serve.residual_us"], known+vals["serve.residual_us"], p50))
	return nil
}

// wireRound is one round of a serving workload: a fresh server child and a
// fresh echo child set up on the CPUs they serve on, the load generator
// placed, warm-up and measured span, and what they yielded added to tot.
func (r *run) wireRound(bin, rules string, ch *churn, round int, tot *wireTotals) error {
	cfg := r.cfg
	loadCPU, serverCPUs := placement(cfg.workload, r.allowed)
	if err := pinProcess(r.allowed); err != nil {
		return err
	}
	srv, setup, err := startServer(serverCPUs, bin, rules)
	if err != nil {
		return err
	}
	defer srv.stop()
	r.clock.lap("setup")
	tot.setups = append(tot.setups, setup.Seconds())
	tot.sram = srv.sramBytes
	t := &wireRun{in: r.in, ch: ch, srv: srv, seed: cfg.seed + int64(round), warm: r.cfg.warm, span: r.roundSpan, trace: cfg.trace}
	if _, ok := nominal[cfg.workload]; ok {
		if t.echo, err = startEcho(serverCPUs); err != nil {
			return err
		}
		defer t.echo.stop()
	}
	if err := pinProcess(loadCPU); err != nil {
		return err
	}

	switch cfg.workload {
	case "wire_pingpong":
		err = t.closed(1, 1)
	case "wire_burst":
		err = t.closed(2, burstDepth)
	case "wire_open":
		err = t.open(openRate)
	case "wire_churn":
		err = t.open(churnLookupRate)
	}
	r.clock.lap("traffic")
	if err != nil {
		return fmt.Errorf("%s: %w\nlpmserve stderr:\n%s", cfg.workload, err, srv.stderr)
	}
	select {
	case <-srv.exited:
		return fmt.Errorf("lpmserve exited during the run:\n%s", srv.stderr)
	default:
	}

	from, to := int64(r.cfg.warm), int64(r.cfg.warm+r.roundSpan)
	width := int64(wireWindow)
	if t.echo == nil {
		width = int64(slice) // no reference: every slice is a window of the workload's own
	}
	ws, ref := cutWindows(t.samples, from, to, width, int64(slice), int64(latencyLimit))
	tot.ws.merge(ws)
	tot.ref.merge(ref)
	var lookups, unanswered, updFailed int64
	for _, s := range t.samples {
		if s.done == 0 {
			unanswered++
		}
		if s.ref {
			if s.ok && s.due >= from && s.due < to {
				tot.echoed++
			}
			continue
		}
		lookups++
		if s.due >= from && s.due < to {
			tot.scheduled++
			if s.done != 0 {
				tot.answered++
			}
			if s.ok {
				tot.completed++
			}
		}
	}
	for _, u := range t.updates {
		if !u.ok {
			updFailed++ // refused, or never acknowledged
		}
		if u.done != 0 {
			tot.ackUs = append(tot.ackUs, float64(u.done-u.due)/1e3)
		}
	}
	tot.late = append(tot.late, t.late...)
	tot.usage.userUs += t.usage[1].userUs - t.usage[0].userUs
	tot.usage.sysUs += t.usage[1].sysUs - t.usage[0].sysUs
	tot.usage.ctxsw += t.usage[1].ctxsw - t.usage[0].ctxsw
	tot.hwmMiB = append(tot.hwmMiB, t.usage[1].hwmMiB)
	tot.echoCPU += t.echoUsage[1].userUs + t.echoUsage[1].sysUs - t.echoUsage[0].userUs - t.echoUsage[0].sysUs
	for name, v := range t.metrics[1] {
		tot.metrics[name] += v - t.metrics[0][name]
	}
	tot.torn += t.torn.Load()
	r.res.Attempted += int64(len(t.samples) + len(t.updates))
	r.res.Failed += t.errs.Load() + t.mismatches.Load() + unanswered + updFailed
	r.notes = append(r.notes, fmt.Sprintf("round %d: set-up %.3f s  lookups=%d echoes=%d updates=%d errors=%d mismatches=%d unanswered=%d failed-updates=%d torn=%d",
		round, setup.Seconds(), lookups, int64(len(t.samples))-lookups, len(t.updates), t.errs.Load(), t.mismatches.Load(), unanswered, updFailed, t.torn.Load()))
	if n := t.torn.Load(); n > 0 {
		r.notes = append(r.notes, fmt.Sprintf("TORN READS: %d flap-site lookups saw an answer outside their legal set", n))
	}
	return nil
}
