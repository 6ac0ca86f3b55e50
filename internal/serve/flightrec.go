// The flight-recorder surface (DESIGN.md §13): /debug/flightrec and
// /debug/slow expose the sampled query ring and the worst-N log. Both read
// the process-wide telemetry.Flight recorder; nothing here touches the query
// hot path. Latency quantiles are not rendered here: /metrics exports the
// cumulative neurolpm_lookup_latency_ns histogram, and a window is the
// difference of two scrapes.
package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/telemetry"
)

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

// render renders recs, each with the shard its key routes to.
func (s *Server) render(recs ...telemetry.FlightRecord) []flightJSON {
	out := make([]flightJSON, len(recs))
	for i, rec := range recs {
		stages := make(map[string]int64, telemetry.NumStages)
		for st, ns := range rec.StageNs {
			if ns != 0 {
				stages[telemetry.StageNames[st]] = ns
			}
		}
		k := keys.FromParts(rec.KeyHi, rec.KeyLo)
		out[i] = flightJSON{
			When:       time.Unix(0, rec.When).UTC().Format(time.RFC3339Nano),
			Key:        k.String(),
			Shard:      int32(s.sh.ShardOf(k)),
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

// flightHandler serves the ?n= records (def by default) that get returns:
// /debug/flightrec the ring's latest, /debug/slow the slowest.
func (s *Server) flightHandler(def int, get func(n int) []telemetry.FlightRecord) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n, err := parseN(r, def, telemetry.Flight.RingSize())
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		recs := s.render(get(n)...)
		writeJSON(w, flightResponse{
			SampleEvery: telemetry.Flight.SampleEvery(),
			RingSize:    telemetry.Flight.RingSize(),
			Recorded:    telemetry.Flight.Recorded(),
			Count:       len(recs),
			Records:     recs,
		})
	}
}
