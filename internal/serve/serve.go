// Package serve serves a NeuroLPM engine. Lookups and rule updates travel
// over the binary wire protocol (WireServer, DESIGN.md §17), the one data
// path. HTTP is the operations surface: Prometheus-format /metrics backed by
// the telemetry registry, net/http/pprof, /healthz, the flight recorder's
// /debug/flightrec and /debug/slow, a /trace?key= endpoint returning one
// query's paper-unit trace and its timed flight record as JSON, and a
// /lookup?key= for a human asking about one key. cmd/lpmserve wraps it into
// a daemon.
package serve

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/netip"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"

	"neurolpm/internal/keys"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

// Server serves a ShardedUpdatable — one shard is the degenerate case, not a
// separate mode — whose per-shard and rebuild telemetry ride the same /metrics
// surface. Lookups run concurrently with each other and with updates
// (a rebuild swaps the shard's engine snapshot atomically).
type Server struct {
	sh  *shard.ShardedUpdatable
	reg *telemetry.Registry
}

// NewSharded wraps a sharded updatable engine: /lookup routes through the
// shard fan-out, /trace records the key's sub-engine, /healthz aggregates
// across shards, and a WireServer on it answers lookups and lands updates in
// the covered shards' live engines. reg is the registry /metrics renders; pass
// telemetry.Default to expose the engine's always-on instrumentation.
func NewSharded(sh *shard.ShardedUpdatable, reg *telemetry.Registry) *Server {
	return &Server{sh: sh, reg: reg}
}

// Handler returns the full mux: /lookup, /trace, /metrics, /healthz,
// /debug/flightrec, /debug/slow and /debug/pprof/*.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", s.handleLookup)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.reg.WritePrometheus(w)
		writeRuntimeMetrics(w)
	})
	mux.HandleFunc("/debug/flightrec", s.flightHandler(64, telemetry.Flight.Recent))
	mux.HandleFunc("/debug/slow", s.flightHandler(32, telemetry.Flight.Slow))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// runtimeSamples is the one reused runtime/metrics sample slice behind the Go
// runtime series of a scrape; the mutex makes concurrent scrapes take turns.
var runtimeSamples = struct {
	sync.Mutex
	s []metrics.Sample
}{s: []metrics.Sample{
	{Name: "/sched/goroutines:goroutines"},
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}}

// writeRuntimeMetrics appends Go runtime gauges to a Prometheus scrape, read
// through runtime/metrics: unlike runtime.ReadMemStats it does not stop the
// world, so a scrape never pauses the lookups being served beside it.
func writeRuntimeMetrics(w http.ResponseWriter) {
	runtimeSamples.Lock()
	metrics.Read(runtimeSamples.s)
	var v [3]uint64
	for i := range v {
		v[i] = runtimeSamples.s[i].Value.Uint64()
	}
	runtimeSamples.Unlock()
	fmt.Fprintf(w, "# HELP go_goroutines Number of goroutines\n# TYPE go_goroutines gauge\ngo_goroutines %d\n", v[0])
	fmt.Fprintf(w, "# HELP go_heap_alloc_bytes Heap bytes in use\n# TYPE go_heap_alloc_bytes gauge\ngo_heap_alloc_bytes %d\n", v[1])
	fmt.Fprintf(w, "# HELP go_gc_cycles_total Completed GC cycles\n# TYPE go_gc_cycles_total counter\ngo_gc_cycles_total %d\n", v[2])
}

// lookupResponse is the /lookup JSON shape.
type lookupResponse struct {
	Key     string `json:"key"`
	Matched bool   `json:"matched"`
	Action  uint64 `json:"action"`
}

// traceLookup is /trace's lookup section: the answer plus the paper-unit
// fields of the traced sub-engine query.
type traceLookup struct {
	lookupResponse
	PredictedIndex int  `json:"predicted_index"`
	Submodel       int  `json:"submodel"`
	ErrorBound     int  `json:"error_bound"`
	SRAMProbes     int  `json:"sram_probes"`
	RangeIndex     int  `json:"range_index"`
	BucketRead     bool `json:"bucket_read"`
	SpillRead      bool `json:"spill_read"`
	DRAMBytes      int  `json:"dram_bytes"`
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	k, err := parseKey(r.URL.Query().Get("key"), s.sh.Width())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	action, ok := s.sh.Lookup(k)
	writeJSON(w, lookupResponse{Key: k.String(), Matched: ok, Action: action})
}

// traceResponse is the /trace JSON shape: the paper-units trace plus the
// key's flight record, rendered as /debug/flightrec renders the ring's.
type traceResponse struct {
	Lookup traceLookup `json:"lookup"`
	Record flightJSON  `json:"record"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	k, err := parseKey(r.URL.Query().Get("key"), s.sh.Width())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Trace the key's sub-engine directly: the shard's live engine is the
	// whole answer.
	tr, fr := s.sh.Engine(s.sh.ShardOf(k)).LookupRecord(k)
	writeJSON(w, traceResponse{
		Lookup: traceLookup{
			lookupResponse: lookupResponse{Key: k.String(), Matched: tr.Matched, Action: tr.Action},
			PredictedIndex: tr.Prediction.Index,
			Submodel:       tr.Prediction.Submodel,
			ErrorBound:     tr.Prediction.Err,
			SRAMProbes:     tr.SRAMProbes,
			RangeIndex:     tr.RangeIndex,
			BucketRead:     tr.BucketRead,
			SpillRead:      tr.Spilled,
			DRAMBytes:      tr.DRAMBytes,
		},
		Record: s.render(fr)[0],
	})
}

// handleHealthz reports liveness — 200 whenever the server is up — with an
// engine summary summed over shards.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sramBytes, dramBytes, ranges := 0, 0, 0
	for i := 0; i < s.sh.Shards(); i++ {
		e := s.sh.Engine(i)
		sramBytes += e.SRAMUsage().Total
		dramBytes += e.DRAMFootprint()
		ranges += e.Ranges().Len()
	}
	writeJSON(w, map[string]any{
		"status":     "ok",
		"width":      s.sh.Width(),
		"shards":     s.sh.Shards(),
		"ranges":     ranges,
		"sram_bytes": sramBytes,
		"dram_bytes": dramBytes,
	})
}

// jsonEnc pairs a staging buffer with a json.Encoder writing into it, pooled
// so /lookup reuses the encoder state and buffer instead of allocating both
// per request. Staging also yields an exact Content-Length.
type jsonEnc struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonEncPool = sync.Pool{New: func() any {
	e := &jsonEnc{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

func writeJSON(w http.ResponseWriter, v any) {
	e := jsonEncPool.Get().(*jsonEnc)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		jsonEncPool.Put(e)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.Write(e.buf.Bytes())
	jsonEncPool.Put(e)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// parseKey accepts the key formats operators actually paste: an IP literal —
// dotted IPv4 on a 32-bit engine, IPv6 on a 128-bit one — 0x-prefixed or bare
// hex, and decimal.
func parseKey(s string, width int) (keys.Value, error) {
	if s == "" {
		return keys.Value{}, fmt.Errorf("missing key parameter")
	}
	if strings.ContainsAny(s, ".:") {
		a, err := netip.ParseAddr(s)
		switch {
		case err != nil || a.Zone() != "":
			return keys.Value{}, fmt.Errorf("bad IP key %q", s)
		case a.Is4() && width == 32:
			b := a.As4()
			return keys.FromUint64(uint64(binary.BigEndian.Uint32(b[:]))), nil
		case a.Is6() && width == 128:
			b := a.As16()
			return keys.FromParts(binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])), nil
		}
		return keys.Value{}, fmt.Errorf("IP key %q on a %d-bit engine", s, width)
	}
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return parseHex128(s[2:])
	}
	// Bare digits: decimal first, hex as fallback for a..f.
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return keys.FromUint64(v), nil
	}
	return parseHex128(s)
}

// parseHex128 parses up to 32 hex digits into a 128-bit key.
func parseHex128(h string) (keys.Value, error) {
	split := max(len(h)-16, 0)
	hi, errHi := strconv.ParseUint(cmp.Or(h[:split], "0"), 16, 64)
	lo, errLo := strconv.ParseUint(h[split:], 16, 64)
	if len(h) > 32 || errHi != nil || errLo != nil {
		return keys.Value{}, fmt.Errorf("bad hex key %q", h)
	}
	return keys.FromParts(hi, lo), nil
}
