package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder is the always-on sampled-tracing half of the
// observability plane (DESIGN.md §13): 1-in-N queries run the real plane
// stack (compiled inference → bounded secondary search → bucket fetch) with per-stage clock stamps into a fixed-size FlightRecord
// on the caller's stack, which Commit then copies into a bounded ring and,
// for the worst offenders, a worst-N slow-query log. The untimed N−1 of
// every N queries pay one atomic-load-and-mask on a tick they already
// incremented — no clocks, no allocation, no locks.
//
// The sampling decision is lock-free; the ring and slow-log writes take a
// tiny mutex whose critical section is one fixed-size struct copy. At the
// default 1:256 stride even multi-Mlookups/s traffic commits tens of
// thousands of records per second — microseconds of aggregate lock hold
// time — so the mutex is uncontended in practice while keeping the reader
// side (debug endpoints) free of torn records under the race detector's
// memory model.

// Flight-record stage indices (StageNs slots).
const (
	StageInference = iota // RQRMI compiled inference
	StageSearch           // bounded secondary search
	StageFetch            // DRAM bucket fetch + bucket scan
	NumStages
)

// StageNames maps stage indices to their /debug/flightrec spellings.
var StageNames = [NumStages]string{"inference", "secondary-search", "bucket-fetch"}

// FlightRecord is one sampled query. It is a fixed-size value — records move
// by copy, never by pointer — so sampling allocates nothing.
type FlightRecord struct {
	When       int64 // query start, Unix nanoseconds
	KeyHi      uint64
	KeyLo      uint64
	TotalNs    int64
	StageNs    [NumStages]int64
	Probes     int32 // secondary-search probes
	ErrBound   int32 // compiled per-query error bound
	Action     uint64
	Matched    bool
	BucketRead bool
	Batch      bool // batched query: inference was pipelined, not timed per key

	t0     time.Time // monotonic base for TotalNs and stage deltas
	lastNs int64     // elapsed ns at the previous Stamp
}

// Begin starts the record's clock and tags the key. This is the record's
// only full time.Now read; Stamp and Commit take monotonic-only deltas
// against t0 (time.Since skips the wall-clock half, roughly halving the
// cost per read — the flight recorder's per-sample budget is mostly clock
// reads).
func (fr *FlightRecord) Begin(keyHi, keyLo uint64) {
	t := time.Now()
	fr.t0 = t
	fr.When = t.UnixNano()
	fr.KeyHi, fr.KeyLo = keyHi, keyLo
}

// Stamp charges the time since the previous stamp (or Begin) to stage.
// Safe on a nil record: unsampled queries pass fr == nil everywhere.
func (fr *FlightRecord) Stamp(stage int) {
	if fr == nil {
		return
	}
	d := time.Since(fr.t0).Nanoseconds()
	fr.StageNs[stage] += d - fr.lastNs
	fr.lastNs = d
}

// End stamps TotalNs, the time since Begin.
func (fr *FlightRecord) End() { fr.TotalNs = time.Since(fr.t0).Nanoseconds() }

// maskOff is the disabled sentinel: every tick ORs to the same value under
// it, so no tick is ever on the stride.
const maskOff = ^uint64(0)

// Recorder is a flight-recorder instance: sampling mask, record ring,
// slow-query log, and the cumulative latency histogram of the sampled
// queries (neurolpm_lookup_latency_ns on /metrics; a window is the
// difference of two scrapes). Use the package-level Flight; newRecorder
// exists for tests.
type Recorder struct {
	mask  atomic.Uint64 // sampleEvery−1, or maskOff when disabled
	every atomic.Uint64
	gen   atomic.Uint64 // bumped by every SetSampleEvery (TallyStripe.claim)

	ringMu sync.Mutex
	ring   []FlightRecord
	pos    uint64 // total commits; ring[pos&(len-1)] is the next slot

	slowN   int
	slowMu  sync.Mutex
	slow    []FlightRecord // sorted by TotalNs descending
	slowMin atomic.Int64   // fast-reject floor once the slow log is full

	lat *Histogram
}

// DefaultSampleEvery is the always-on sampling stride: 1 in 256 queries.
// A flight draw takes a tick of the lookup's tally stripe (Recorder.Draws,
// through TallyStripe.claim); the engine's distributions sample 1 in 64 on
// another tick, the lane tick core's Engine.book returns, so a flight-sampled
// query need not be a distribution-sampled one. 256 keeps the amortized
// record cost (~250ns of clock reads and ring writes per sample) inside the
// noise floor of a ~150ns lookup — E26 measures the overhead; 64 was
// measurable at 5–7%.
const DefaultSampleEvery = 256

// Flight is the process-wide recorder every engine lookup samples into.
var Flight = newRecorder(4096, 32)

// newRecorder builds a recorder with the given ring size (rounded up to a
// power of two) and slow-log depth, sampling 1 in DefaultSampleEvery.
func newRecorder(ringSize, slowN int) *Recorder {
	n := 1
	for n < ringSize {
		n <<= 1
	}
	if slowN < 1 {
		slowN = 1
	}
	r := &Recorder{
		ring:  make([]FlightRecord, n),
		slowN: slowN,
		slow:  make([]FlightRecord, 0, slowN),
		lat: Default.Histogram("neurolpm_lookup_latency_ns",
			"Sampled end-to-end lookup latency in nanoseconds (flight recorder; 1-in-N)"),
	}
	r.SetSampleEvery(DefaultSampleEvery)
	return r
}

// SetSampleEvery sets the sampling stride: 1 in n queries (n rounded up to a
// power of two). n == 0 disables sampling entirely.
func (r *Recorder) SetSampleEvery(n uint64) {
	r.gen.Add(1)
	if n == 0 {
		r.every.Store(0)
		r.mask.Store(maskOff)
		return
	}
	p := uint64(1)
	for p < n {
		p <<= 1
	}
	r.every.Store(p)
	r.mask.Store(p - 1)
}

// SampleEvery returns the current stride (0 when disabled).
func (r *Recorder) SampleEvery() uint64 { return r.every.Load() }

// Draws reports whether the event at tick t of stripe s is sampled, claiming
// its stride tick (TallyStripe.claim) so no other event on s takes it. Callers
// peek a tick they already keep (TallyStripe.Tick), so an unsampled event
// costs the peek, three loads and a compare.
func (r *Recorder) Draws(s *TallyStripe, t uint64) bool {
	return s.claim(r.mask.Load(), r.gen.Load(), t)
}

// Due reports whether an event on stripe s up to tick t may be sampled, with
// no write: a block of events that is not due skips Draws for each of them.
func (r *Recorder) Due(s *TallyStripe, t uint64) bool { return s.due(r.mask.Load(), t) }

// Commit ends fr (End), feeds the latency histogram, and copies the record
// into the ring and — when slow enough — the slow log.
func (r *Recorder) Commit(fr *FlightRecord) {
	fr.End()
	r.lat.Observe(uint64(fr.TotalNs))

	r.ringMu.Lock()
	r.ring[r.pos&uint64(len(r.ring)-1)] = *fr
	r.pos++
	r.ringMu.Unlock()

	// Fast reject: once the slow log is full, only records beating its
	// floor take the lock.
	if min := r.slowMin.Load(); min > 0 && fr.TotalNs <= min {
		return
	}
	r.slowMu.Lock()
	r.offerSlowLocked(fr)
	r.slowMu.Unlock()
}

// offerSlowLocked inserts fr into the descending slow log (linear shift —
// the log holds tens of entries).
func (r *Recorder) offerSlowLocked(fr *FlightRecord) {
	i := len(r.slow)
	for i > 0 && r.slow[i-1].TotalNs < fr.TotalNs {
		i--
	}
	if i >= r.slowN {
		return
	}
	if len(r.slow) < r.slowN {
		r.slow = append(r.slow, FlightRecord{})
	}
	copy(r.slow[i+1:], r.slow[i:])
	r.slow[i] = *fr
	if len(r.slow) == r.slowN {
		r.slowMin.Store(r.slow[len(r.slow)-1].TotalNs)
	}
}

// Recent returns up to n records, newest first.
func (r *Recorder) Recent(n int) []FlightRecord {
	if n <= 0 {
		return nil
	}
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	have := int(r.pos)
	if r.pos > uint64(len(r.ring)) {
		have = len(r.ring)
	}
	if n > have {
		n = have
	}
	out := make([]FlightRecord, n)
	for i := 0; i < n; i++ {
		out[i] = r.ring[(r.pos-1-uint64(i))&uint64(len(r.ring)-1)]
	}
	return out
}

// Slow returns up to n slow-log records, worst first.
func (r *Recorder) Slow(n int) []FlightRecord {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	if n <= 0 || n > len(r.slow) {
		n = len(r.slow)
	}
	return append([]FlightRecord(nil), r.slow[:n]...)
}

// RingSize returns the ring capacity.
func (r *Recorder) RingSize() int { return len(r.ring) }

// Recorded returns the total number of committed records.
func (r *Recorder) Recorded() uint64 {
	r.ringMu.Lock()
	defer r.ringMu.Unlock()
	return r.pos
}

func init() {
	Default.gauge("neurolpm_flightrec_sample_every",
		"Flight-recorder sampling stride (1-in-N; 0 = disabled)",
		func() float64 { return float64(Flight.SampleEvery()) })
	Default.gauge("neurolpm_flightrec_records",
		"Flight records committed since boot",
		func() float64 { return float64(Flight.Recorded()) })
}
