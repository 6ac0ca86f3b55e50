package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"neurolpm"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/wire"
)

const (
	blockKeys = 256
	// slice is how long a workload stays on one side, its own traffic or the
	// reference's, before it switches. It is long against the millisecond or
	// two a side needs to pull its working set back into cache and short
	// against the seconds over which the host's speed drifts.
	slice = 50 * time.Millisecond
	// A library window is a slice each of single-key lookups, reference,
	// LookupBatch(256) calls and reference again; a serving window is a slice
	// of lookups and one of echoes.
	libWindow  = 4 * slice
	wireWindow = 2 * slice
)

// libOutcome is what a library workload measured, summed over its rounds.
type libOutcome struct {
	ws, ref   windowStats // ws.QPS is the single-key phase, ws.P50 the batch calls
	setups    []float64   // Build wall times, s
	heapMiB   []float64   // live heap each built engine retains
	sramBytes float64
	cpuUs     float64 // process CPU over the engine's measured slices
	keys      int64   // lookups answered in them
	refCPUUs  float64 // and over the reference's
	refKeys   int64
	wrong     int64
	engine    *neurolpm.Engine
}

// selfCPU returns this process's cumulative user+system CPU time in µs.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// buildEngine times one neurolpm.Build and replaces out's engine with the
// new one.
func buildEngine(in *inputs, out *libOutcome) error {
	out.engine = nil
	before := liveHeap()
	t := time.Now()
	e, err := neurolpm.Build(in.rs, neurolpm.DefaultConfig())
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	out.setups = append(out.setups, time.Since(t).Seconds())
	out.engine = e
	out.heapMiB = append(out.heapMiB, (liveHeap()-before)/(1<<20))
	out.sramBytes = float64(e.SRAMUsage().Total)
	return nil
}

// refSink keeps the reference's answers alive.
var refSink uint64

// runLib drives out's engine through the public facade on this goroutine:
// after warm, windows of single-key Lookup, reference, LookupBatch(256) and
// reference again over the trace for span, and adds what it measured to out.
// Each 256-key block is timed as a whole and verified against the oracle
// after its end stamp.
func runLib(in *inputs, ref *refTable, warm, span time.Duration, out *libOutcome) {
	defer quiet()()
	e := out.engine
	nWin, warmWin := int(span/libWindow), int((warm+libWindow-1)/libWindow)
	type win struct {
		singleNs, singleKeys int64
		batch, ref           []int64 // per-block ns
		within               int
	}
	wins := make([]win, nWin)
	for i := range wins {
		wins[i].batch = make([]int64, 0, 1<<12) // no growth while measuring
		wins[i].ref = make([]int64, 0, 1<<13)
	}
	var got [blockKeys]wire.Result
	res := make([]core.BatchResult, 0, blockKeys)
	trace := in.trace
	verify := func(pos int) bool {
		ok := true
		for i := range got {
			if got[i] != in.want[pos+i] {
				out.wrong++
				ok = false
			}
		}
		return ok
	}
	pos := 0
	next := func() (int, []keys.Value) {
		if pos+blockKeys > len(trace) {
			pos = 0
		}
		p := pos
		pos += blockKeys
		return p, trace[p : p+blockKeys]
	}
	var w *win
	reference := func(until time.Time) float64 {
		cpu := selfCPU()
		for t0 := time.Now(); t0.Before(until); t0 = time.Now() {
			_, ks := next()
			var sum uint64
			for _, k := range ks {
				sum += ref.find(k)
			}
			w.ref = append(w.ref, int64(time.Since(t0)))
			refSink += sum
		}
		return selfCPU() - cpu
	}
	start := time.Now()
	for wi := -warmWin; wi < nWin; wi++ {
		w = &win{}
		if wi >= 0 {
			w = &wins[wi]
		}
		at := start.Add(time.Duration(wi+warmWin) * libWindow)
		cpu := -selfCPU()
		for t0, until := time.Now(), at.Add(slice); t0.Before(until); t0 = time.Now() {
			p, ks := next()
			for i, k := range ks {
				a, ok := e.Lookup(k)
				got[i] = wire.Result{Action: a, Matched: ok}
			}
			w.singleNs += int64(time.Since(t0))
			w.singleKeys += blockKeys
			verify(p)
		}
		cpu += selfCPU()
		refCPU := reference(at.Add(2 * slice))
		cpu -= selfCPU()
		for t0, until := time.Now(), at.Add(3*slice); t0.Before(until); t0 = time.Now() {
			p, ks := next()
			res = e.LookupBatch(ks, res[:0])
			d := time.Since(t0)
			for i, r := range res {
				got[i] = wire.Result{Action: r.Action, Matched: r.Matched}
			}
			w.batch = append(w.batch, int64(d))
			if verify(p) && d <= latencyLimit {
				w.within++
			}
		}
		cpu += selfCPU()
		refCPU += reference(at.Add(4 * slice))
		if wi >= 0 {
			out.cpuUs += cpu
			out.refCPUUs += refCPU
		}
	}
	for i := range wins {
		w := &wins[i]
		if w.singleKeys == 0 || len(w.batch) == 0 || len(w.ref) == 0 {
			continue // a stall swallowed a whole slice
		}
		out.keys += w.singleKeys + int64(len(w.batch))*blockKeys
		out.refKeys += int64(len(w.ref)) * blockKeys
		var refNs int64
		for _, d := range w.ref {
			refNs += d
		}
		sortInt64s(w.batch)
		sortInt64s(w.ref)
		// The rate is the single-key slice's, the latencies are the batch calls'.
		out.ws.add(w.batch, len(w.batch), int(w.singleKeys), w.within, float64(w.singleNs)/1e9)
		out.ref.add(w.ref, len(w.ref), len(w.ref)*blockKeys, len(w.ref), float64(refNs)/1e9)
	}
}
