// The flight-recorder & SLO surface (DESIGN.md §13): /slo renders windowed
// tail-latency quantiles plus per-shard drift and hotness, /debug/flightrec
// and /debug/slow expose the sampled query ring and the worst-N log, and
// /debug/hotness lists a shard's hottest buckets. Everything here reads the
// process-wide telemetry.Flight recorder and the engines' meters; nothing
// touches the query hot path.
package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/telemetry"
)

// sloWindows are the standard /slo reporting windows; "boot" is the
// cumulative since-start distribution (span_ms 0 by convention).
var sloWindows = []struct {
	label string
	d     time.Duration
}{
	{"10s", 10 * time.Second},
	{"60s", 60 * time.Second},
	{"boot", 0},
}

// sloWindow is one window row of the /slo response. Latencies come from the
// flight recorder's sampled queries (1-in-N), so Count is samples, not
// lookups; SpanMs is the actual time the window covers (windows early in the
// process life cover less than requested).
type sloWindow struct {
	Window string  `json:"window"`
	SpanMs int64   `json:"span_ms"`
	Count  uint64  `json:"count"`
	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MeanNs float64 `json:"mean_ns"`
	MaxNs  uint64  `json:"max_ns"`
}

// sloShard is one shard's model-drift and hotness row.
type sloShard struct {
	Shard       int     `json:"shard"`
	Drift       float64 `json:"drift"`
	ProbeBound  int     `json:"probe_bound"`
	HotnessSkew float64 `json:"hotness_skew"`
}

// sloResponse is the /slo JSON shape, the document lpmtop polls.
type sloResponse struct {
	SampleEvery  uint64      `json:"sample_every"`
	Recorded     uint64      `json:"recorded"`
	LookupsTotal uint64      `json:"lookups_total"`
	Windows      []sloWindow `json:"windows"`
	Shards       []sloShard  `json:"shards,omitempty"`
}

// windowRow evaluates one labelled window against the flight recorder.
func windowRow(label string, d time.Duration) sloWindow {
	s, span := telemetry.Flight.LatencyWindow(d)
	return sloWindow{
		Window: label,
		SpanMs: span.Milliseconds(),
		Count:  s.Total,
		P50Ns:  s.Quantile(0.50),
		P99Ns:  s.Quantile(0.99),
		P999Ns: s.Quantile(0.999),
		MeanNs: s.Mean(),
		MaxNs:  s.Max(),
	}
}

// sloCore builds the engine-independent part of the /slo payload, honouring
// an optional ?window=<duration> extra row.
func sloCore(r *http.Request) (sloResponse, error) {
	resp := sloResponse{
		SampleEvery:  telemetry.Flight.SampleEvery(),
		Recorded:     telemetry.Flight.Recorded(),
		LookupsTotal: core.LookupCounts().Lookups,
	}
	for _, w := range sloWindows {
		resp.Windows = append(resp.Windows, windowRow(w.label, w.d))
	}
	if q := r.URL.Query().Get("window"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			return resp, fmt.Errorf("bad window %q (want a positive Go duration like 30s)", q)
		}
		resp.Windows = append(resp.Windows, windowRow(q, d))
	}
	return resp, nil
}

// shardRows collects the per-shard drift/hotness section.
func (s *Server) shardRows() []sloShard {
	rows := make([]sloShard, s.sh.Shards())
	for i := range rows {
		e := s.sh.Engine(i)
		rows[i] = sloShard{
			Shard:       i,
			Drift:       e.DriftMeter().Drift(),
			ProbeBound:  e.DriftMeter().Bound(),
			HotnessSkew: e.HotSketch().Skew(),
		}
	}
	return rows
}

func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	resp, err := sloCore(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	resp.Shards = s.shardRows()
	writeJSON(w, resp)
}

// handleSLOBare serves /slo without an engine attached (MetricsHandler —
// lpmbench -metrics): windows only, no shard section.
func handleSLOBare(w http.ResponseWriter, r *http.Request) {
	resp, err := sloCore(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, resp)
}

// flightJSON is the rendered form of one telemetry.FlightRecord.
type flightJSON struct {
	When       string           `json:"when"`
	Key        string           `json:"key"`
	Shard      int32            `json:"shard"`
	TotalNs    int64            `json:"total_ns"`
	StagesNs   map[string]int64 `json:"stages_ns"`
	Probes     int32            `json:"probes"`
	ErrBound   int32            `json:"error_bound"`
	Action     uint64           `json:"action"`
	Matched    bool             `json:"matched"`
	BucketRead bool             `json:"bucket_read"`
	Batch      bool             `json:"batch,omitempty"`
}

func renderRecords(recs []telemetry.FlightRecord) []flightJSON {
	out := make([]flightJSON, len(recs))
	for i, rec := range recs {
		stages := make(map[string]int64, telemetry.NumStages)
		for st, ns := range rec.StageNs {
			if ns != 0 {
				stages[telemetry.StageNames[st]] = ns
			}
		}
		out[i] = flightJSON{
			When:       time.Unix(0, rec.When).UTC().Format(time.RFC3339Nano),
			Key:        keys.FromParts(rec.KeyHi, rec.KeyLo).String(),
			Shard:      rec.Shard,
			TotalNs:    rec.TotalNs,
			StagesNs:   stages,
			Probes:     rec.Probes,
			ErrBound:   rec.ErrBound,
			Action:     rec.Action,
			Matched:    rec.Matched,
			BucketRead: rec.BucketRead,
			Batch:      rec.Batch,
		}
	}
	return out
}

// parseN reads a positive ?n= parameter, with a default and a cap.
func parseN(r *http.Request, def, max int) (int, error) {
	q := r.URL.Query().Get("n")
	if q == "" {
		return def, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad n %q (want a positive integer)", q)
	}
	if n > max {
		n = max
	}
	return n, nil
}

// flightResponse is the /debug/flightrec and /debug/slow JSON shape.
type flightResponse struct {
	SampleEvery uint64       `json:"sample_every"`
	RingSize    int          `json:"ring_size"`
	Recorded    uint64       `json:"recorded"`
	Count       int          `json:"count"`
	Records     []flightJSON `json:"records"`
}

func handleFlightRec(w http.ResponseWriter, r *http.Request) {
	n, err := parseN(r, 64, telemetry.Flight.RingSize())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	recs := renderRecords(telemetry.Flight.Recent(n))
	writeJSON(w, flightResponse{
		SampleEvery: telemetry.Flight.SampleEvery(),
		RingSize:    telemetry.Flight.RingSize(),
		Recorded:    telemetry.Flight.Recorded(),
		Count:       len(recs),
		Records:     recs,
	})
}

func handleSlow(w http.ResponseWriter, r *http.Request) {
	n, err := parseN(r, 32, telemetry.Flight.RingSize())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	recs := renderRecords(telemetry.Flight.Slow(n))
	writeJSON(w, flightResponse{
		SampleEvery: telemetry.Flight.SampleEvery(),
		RingSize:    telemetry.Flight.RingSize(),
		Recorded:    telemetry.Flight.Recorded(),
		Count:       len(recs),
		Records:     recs,
	})
}

// hotnessResponse is the /debug/hotness JSON shape.
type hotnessResponse struct {
	Shard   int                   `json:"shard"`
	Slots   int                   `json:"slots"`
	Aliased bool                  `json:"aliased"`
	Total   uint64                `json:"total"`
	Skew    float64               `json:"skew"`
	Top     []telemetry.HotBucket `json:"top"`
}

func (s *Server) handleHotness(w http.ResponseWriter, r *http.Request) {
	shardIdx := 0
	if q := r.URL.Query().Get("shard"); q != "" {
		i, err := strconv.Atoi(q)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", q))
			return
		}
		shardIdx = i
	}
	if shardIdx < 0 || shardIdx >= s.sh.Shards() {
		httpError(w, http.StatusBadRequest, fmt.Errorf("shard %d out of range [0,%d)", shardIdx, s.sh.Shards()))
		return
	}
	hs := s.sh.Engine(shardIdx).HotSketch()
	n, err := parseN(r, 20, hs.Slots())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, hotnessResponse{
		Shard:   shardIdx,
		Slots:   hs.Slots(),
		Aliased: hs.Aliased(),
		Total:   hs.Total(),
		Skew:    hs.Skew(),
		Top:     hs.Top(n),
	})
}
