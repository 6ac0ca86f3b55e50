// Package serve serves a NeuroLPM engine. Lookups and rule updates travel
// over the binary wire protocol (WireServer, DESIGN.md §17), the one data
// path. HTTP is the operations surface: Prometheus-format /metrics backed by
// the telemetry registry (also published through expvar at /debug/vars),
// net/http/pprof, /healthz, the flight recorder's /debug/flightrec and
// /debug/slow, a /trace?key= endpoint returning one fully-annotated query
// span as JSON, and a /lookup?key= for a human asking about one key. cmd/lpmserve wraps it into a daemon; lpmbench mounts the
// metrics-only subset behind its -metrics flag.
package serve

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/keys"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

// Server serves a ShardedUpdatable — one shard is the degenerate case, not a
// separate mode — whose per-shard balance and rebuild telemetry ride the same
// /metrics surface. Lookups run concurrently with each other and with updates
// (a rebuild swaps the shard's engine snapshot atomically).
type Server struct {
	sh  *shard.ShardedUpdatable
	reg *telemetry.Registry

	// plain tallies the DRAM traffic of /trace's spanned lookups.
	plain *cachesim.Uncached

	mu   sync.Mutex        // guards info
	info map[string]string // the neurolpm_build_info labels (shards, rules, ...)
}

// NewSharded wraps a sharded updatable engine: /lookup routes through the
// shard fan-out, /trace spans the key's sub-engine, /healthz aggregates across
// shards, and a WireServer on it answers lookups and lands updates in the
// covered shards' live engines. reg is the registry /metrics renders; pass
// telemetry.Default to expose the engine's always-on instrumentation.
func NewSharded(sh *shard.ShardedUpdatable, reg *telemetry.Registry) *Server {
	s := &Server{sh: sh, reg: reg, plain: &cachesim.Uncached{}}
	s.plain.Stats() // initialize the tally before concurrent use
	s.plain.Register(reg, "neurolpm_serve_dram")
	telemetry.PublishExpvar()
	s.SetInfo("shards", strconv.Itoa(sh.Shards()))
	return s
}

// SetInfo adds (or replaces) one neurolpm_build_info label and republishes
// the metric. NewSharded seeds shards; cmd/lpmserve adds its
// configuration (rules, flight-sample).
func (s *Server) SetInfo(key, value string) {
	s.mu.Lock()
	if s.info == nil {
		s.info = make(map[string]string)
	}
	s.info[key] = value
	cp := make(map[string]string, len(s.info))
	for k, v := range s.info {
		cp[k] = v
	}
	s.mu.Unlock()
	telemetry.SetBuildInfo(cp)
}

// Handler returns the full mux: /lookup, /trace, /metrics, /healthz,
// /debug/vars, /debug/flightrec, /debug/slow and /debug/pprof/*.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", s.handleLookup)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mountMetrics(mux, s.reg)
	return mux
}

// MetricsHandler returns the observability-only mux (/metrics, /debug/vars,
// /debug/flightrec, /debug/slow, /debug/pprof/*) for tools that serve no
// queries, like lpmbench -metrics.
func MetricsHandler(reg *telemetry.Registry) http.Handler {
	telemetry.PublishExpvar()
	mux := http.NewServeMux()
	mountMetrics(mux, reg)
	return mux
}

func mountMetrics(mux *http.ServeMux, reg *telemetry.Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.WritePrometheus(w)
		writeRuntimeMetrics(w)
	})
	mux.HandleFunc("/debug/flightrec", handleFlightRec)
	mux.HandleFunc("/debug/slow", handleSlow)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
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
// fields of the spanned sub-engine query.
type traceLookup struct {
	lookupResponse
	SRAMProbes int  `json:"sram_probes"`
	ErrorBound int  `json:"error_bound"`
	BucketRead bool `json:"bucket_read"`
	DRAMBytes  int  `json:"dram_bytes"`
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	k, err := ParseKey(r.URL.Query().Get("key"), s.sh.Width())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	action, ok := s.sh.Lookup(k)
	writeJSON(w, lookupResponse{Key: k.String(), Matched: ok, Action: action})
}

// traceResponse is the /trace JSON shape: the paper-units trace plus the
// timed span, whose stage names are the pipeline's stages.
type traceResponse struct {
	Lookup traceLookup     `json:"lookup"`
	Span   *telemetry.Span `json:"span"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	k, err := ParseKey(r.URL.Query().Get("key"), s.sh.Width())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Span the key's sub-engine directly: the shard's live engine is the whole
	// answer.
	tr, sp := s.sh.Engine(s.sh.ShardOf(k)).LookupSpan(k, s.plain)
	writeJSON(w, traceResponse{
		Lookup: traceLookup{
			lookupResponse: lookupResponse{Key: k.String(), Matched: tr.Matched, Action: tr.Action},
			SRAMProbes:     tr.SRAMProbes,
			ErrorBound:     tr.Prediction.Err,
			BucketRead:     tr.BucketRead,
			DRAMBytes:      tr.DRAMBytes,
		},
		Span: sp,
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

// ParseKey accepts the key formats operators actually paste: dotted IPv4
// (width 32), colon IPv6 (width 128), 0x-prefixed or bare hex, and decimal.
func ParseKey(s string, width int) (keys.Value, error) {
	if s == "" {
		return keys.Value{}, fmt.Errorf("missing key parameter")
	}
	if width == 32 && strings.Count(s, ".") == 3 {
		var b [4]uint64
		parts := strings.Split(s, ".")
		for i, p := range parts {
			v, err := strconv.ParseUint(p, 10, 8)
			if err != nil {
				return keys.Value{}, fmt.Errorf("bad IPv4 key %q", s)
			}
			b[i] = v
		}
		return keys.FromUint64(b[0]<<24 | b[1]<<16 | b[2]<<8 | b[3]), nil
	}
	if strings.Contains(s, ":") {
		if width != 128 {
			return keys.Value{}, fmt.Errorf("IPv6 key %q on a %d-bit engine", s, width)
		}
		return parseHex128(strings.ReplaceAll(expandIPv6(s), ":", ""))
	}
	hexDigits := s
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		hexDigits = s[2:]
		return parseHex128(hexDigits)
	}
	// Bare digits: decimal first, hex as fallback for a..f.
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return keys.FromUint64(v), nil
	}
	return parseHex128(hexDigits)
}

// parseHex128 parses up to 32 hex digits into a 128-bit key.
func parseHex128(h string) (keys.Value, error) {
	if h == "" || len(h) > 32 {
		return keys.Value{}, fmt.Errorf("bad hex key %q", h)
	}
	if len(h) <= 16 {
		lo, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return keys.Value{}, fmt.Errorf("bad hex key %q", h)
		}
		return keys.FromUint64(lo), nil
	}
	hi, err := strconv.ParseUint(h[:len(h)-16], 16, 64)
	if err != nil {
		return keys.Value{}, fmt.Errorf("bad hex key %q", h)
	}
	lo, err := strconv.ParseUint(h[len(h)-16:], 16, 64)
	if err != nil {
		return keys.Value{}, fmt.Errorf("bad hex key %q", h)
	}
	return keys.FromParts(hi, lo), nil
}

// expandIPv6 rewrites an IPv6 literal into 32 contiguous hex digits.
func expandIPv6(s string) string {
	halves := strings.SplitN(s, "::", 2)
	expand := func(part string) []string {
		if part == "" {
			return nil
		}
		return strings.Split(part, ":")
	}
	head := expand(halves[0])
	var tail []string
	if len(halves) == 2 {
		tail = expand(halves[1])
	}
	groups := make([]string, 0, 8)
	groups = append(groups, head...)
	for i := len(head) + len(tail); i < 8; i++ {
		groups = append(groups, "0")
	}
	groups = append(groups, tail...)
	var b strings.Builder
	for _, g := range groups {
		for len(g) < 4 {
			g = "0" + g
		}
		b.WriteString(g)
	}
	return b.String()
}
