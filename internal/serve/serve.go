// Package serve is the HTTP surface of a NeuroLPM engine: lookups and rule
// updates over HTTP, Prometheus-format /metrics backed by the telemetry
// registry (also published through expvar at /debug/vars), net/http/pprof,
// and a /trace?key= endpoint returning one fully-annotated query span as JSON.
// cmd/lpmserve wraps it into a daemon; lpmbench and lpmquery mount the
// metrics-only subset behind their -metrics flag.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"

	"neurolpm/internal/cachesim"
	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/plane"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
)

// Server serves a ShardedUpdatable — one shard is the degenerate case, not a
// separate mode — whose per-shard balance and rebuild telemetry ride the same
// /metrics surface. Lookups run concurrently with each other and with updates
// (commits swap engine snapshots atomically).
type Server struct {
	sh  *shard.ShardedUpdatable
	reg *telemetry.Registry

	// plain tallies the DRAM traffic of /trace's spanned lookups.
	plain *cachesim.Uncached

	// stack is the lookup-plane stack the endpoints serve (DESIGN.md §14):
	// the compiled inference plane, always — the arithmetic the benchmark
	// measures — with the cache-probe plane prepended by UseResultCache, the
	// only way it varies. Set before serving traffic; /lookup and /batch route
	// through the stack executors with this configuration, /trace reports it.
	stack plane.StackConfig

	mu   sync.Mutex        // guards info
	info map[string]string // the neurolpm_build_info labels (shards, cache-bytes, ...)
}

// NewSharded wraps a sharded updatable engine: /lookup and /batch route
// through the shard fan-out (and see pending delta-buffer rules), /update
// feeds the delta buffers, /trace spans the key's sub-engine, /healthz
// aggregates across shards. reg is the registry /metrics renders; pass
// telemetry.Default to expose the engine's always-on instrumentation.
func NewSharded(sh *shard.ShardedUpdatable, reg *telemetry.Registry) *Server {
	s := &Server{sh: sh, reg: reg, plain: &cachesim.Uncached{}}
	s.plain.Stats() // initialize the tally before concurrent use
	s.plain.Register(reg, "neurolpm_serve_dram")
	telemetry.PublishExpvar()
	telemetry.StartRotor()
	s.SetInfo("stack", s.stack.String())
	s.SetInfo("shards", strconv.Itoa(sh.Shards()))
	bank := reg.GaugeVec("neurolpm_inference_bank_bytes",
		"Coefficient-bank bytes of each inference plane, summed over shards (float32 compiled vs int16 quantized)", "plane")
	bank.Set("compiled", func() float64 {
		return s.sumShards(func(e *core.Engine) int { return e.Compiled().BankBytes() })
	})
	bank.Set("quantized", func() float64 {
		return s.sumShards(func(e *core.Engine) int { return e.Quantized().BankBytes() })
	})
	return s
}

// sumShards totals one per-engine size over every shard's live engine.
func (s *Server) sumShards(size func(*core.Engine) int) float64 {
	total := 0
	for i := 0; i < s.sh.Shards(); i++ {
		total += size(s.sh.Engine(i))
	}
	return float64(total)
}

// SetInfo adds (or replaces) one neurolpm_build_info label and republishes
// the metric. NewSharded seeds stack/shards; cmd/lpmserve adds its
// configuration (rules, cache-bytes, flight-sample).
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

// UseResultCache enables the hot-key result cache (the -cache-bytes flag):
// /lookup, /batch and /trace probe epoch-invalidated result caches of the
// given per-cache size before touching the inference pipeline. Call before
// serving traffic. bytes ≤ 0 is a no-op.
func (s *Server) UseResultCache(bytes int) {
	if bytes <= 0 {
		return
	}
	s.stack.Cached = true
	s.SetInfo("stack", s.stack.String())
	s.SetInfo("cache_bytes", strconv.Itoa(bytes))
	s.sh.EnableCache(bytes)
}

// Handler returns the full mux: /lookup, /batch, /trace, /metrics, /slo,
// /healthz, /debug/vars, /debug/flightrec, /debug/slow, /debug/hotness and
// /debug/pprof/*.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lookup", s.handleLookup)
	mux.HandleFunc("/batch", s.handleBatch)
	mux.HandleFunc("/update", s.handleUpdate)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/debug/hotness", s.handleHotness)
	mountMetrics(mux, s.reg)
	return mux
}

// MetricsHandler returns the observability-only mux (/metrics, /slo,
// /debug/vars, /debug/flightrec, /debug/slow, /debug/pprof/*) for tools that
// serve no queries, like lpmbench -metrics. /slo carries the windows but no
// per-shard section (no engine is attached).
func MetricsHandler(reg *telemetry.Registry) http.Handler {
	telemetry.PublishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/slo", handleSLOBare)
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

// lookupResponse is the /lookup JSON shape. Cache reports the result-cache
// outcome ("hit" | "miss" | "stale" | "off") when the plane is enabled.
type lookupResponse struct {
	Key     string `json:"key"`
	Matched bool   `json:"matched"`
	Action  uint64 `json:"action"`
	Cache   string `json:"cache,omitempty"`
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
	// One stack-executor call serves both the cached and uncached
	// configurations; the cache-outcome field appears only when the plane is
	// part of the served stack.
	action, ok, o := s.sh.LookupStack(s.stack, k)
	resp := lookupResponse{Key: k.String(), Matched: ok, Action: action}
	if s.stack.Cached {
		resp.Cache = o.String()
	}
	writeJSON(w, resp)
}

// traceResponse is the /trace JSON shape: the paper-units trace plus the
// timed span. Stack names the lookup-plane stack the server routes queries
// through (DESIGN.md §14); the span's stage names are the stack's stages.
type traceResponse struct {
	Lookup traceLookup     `json:"lookup"`
	Stack  string          `json:"stack"`
	Span   *telemetry.Span `json:"span"`
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	k, err := ParseKey(r.URL.Query().Get("key"), s.sh.Width())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// With the result cache enabled, classify the query first (serving and
	// filling through the cache plane exactly as /lookup would) and then run
	// the annotated span regardless — /trace exists to show the pipeline, so
	// a hit still spans. The duplicated pipeline work on a miss is fine for a
	// debug endpoint.
	var outcome string
	if s.stack.Cached {
		_, _, o := s.sh.LookupStack(s.stack, k)
		outcome = o.String()
	}
	// Span the key's sub-engine directly; the delta-buffer overlay is not
	// part of the traced hardware path.
	tr, sp := s.sh.Engine(s.sh.ShardOf(k)).LookupSpan(s.stack.Inference, k, s.plain)
	writeJSON(w, traceResponse{
		Lookup: traceLookup{
			lookupResponse: lookupResponse{Key: k.String(), Matched: tr.Matched, Action: tr.Action, Cache: outcome},
			SRAMProbes:     tr.SRAMProbes,
			ErrorBound:     tr.Prediction.Err,
			BucketRead:     tr.BucketRead,
			DRAMBytes:      tr.DRAMBytes,
		},
		Stack: s.stack.String(),
		Span:  sp,
	})
}

// MaxBatchKeys bounds one /batch request; larger workloads should stream
// several batches (each already amortizes the per-call overhead).
const MaxBatchKeys = 65536

// batchResponse is the /batch JSON shape. Results are positional.
type batchResponse struct {
	Count   int           `json:"count"`
	Results []batchResult `json:"results"`
}

type batchResult struct {
	Key     string `json:"key"`
	Matched bool   `json:"matched"`
	Action  uint64 `json:"action"`
}

// handleBatch resolves many keys in one request: GET /batch?keys=a,b,c or
// POST /batch with {"keys": ["10.0.0.1", ...]}. The batch is grouped by shard
// and answered on this request's goroutine; one HTTP round-trip amortizes
// over the whole batch.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var raw []string
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query().Get("keys")
		if q == "" {
			httpError(w, http.StatusBadRequest, fmt.Errorf("missing keys parameter"))
			return
		}
		raw = strings.Split(q, ",")
	case http.MethodPost:
		var body struct {
			Keys []string `json:"keys"`
		}
		dec := json.NewDecoder(io.LimitReader(r.Body, 8<<20))
		if err := dec.Decode(&body); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
			return
		}
		// Strict decode: a second document (or trailing garbage) after the
		// request object means the client is confused — reject it rather
		// than silently serving the first object.
		if _, err := dec.Token(); err != io.EOF {
			httpError(w, http.StatusBadRequest, fmt.Errorf("trailing data after JSON body"))
			return
		}
		raw = body.Keys
	default:
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use GET or POST"))
		return
	}
	if len(raw) == 0 || len(raw) > MaxBatchKeys {
		httpError(w, http.StatusBadRequest, fmt.Errorf("batch must carry 1..%d keys, got %d", MaxBatchKeys, len(raw)))
		return
	}
	ks := make([]keys.Value, len(raw))
	for i, txt := range raw {
		k, err := ParseKey(strings.TrimSpace(txt), s.sh.Width())
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("key %d: %w", i, err))
			return
		}
		ks[i] = k
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	sc.res = s.batchStack(ks, sc.res[:0])
	if cap(sc.rows) < len(ks) {
		sc.rows = make([]batchResult, len(ks))
	}
	sc.rows = sc.rows[:len(ks)]
	for i, res := range sc.res {
		sc.rows[i] = batchResult{Key: ks[i].String(), Matched: res.Matched, Action: res.Action}
	}
	writeJSON(w, batchResponse{Count: len(ks), Results: sc.rows})
}

// batchScratch holds one /batch request's reusable result staging; pooled so
// steady-state batch serving reuses the same backing arrays.
type batchScratch struct {
	res  []shard.Result
	rows []batchResult
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

// batchStack resolves ks through the served lookup-plane stack into dst
// (reused when it has the capacity), positionally: the batch is grouped by
// shard, answered on the calling goroutine, and sees pending delta-buffer
// rules. It is the one batch entry point shared by the HTTP /batch handler and
// the wire server's readers (DESIGN.md §17), and is safe for concurrent use.
func (s *Server) batchStack(ks []keys.Value, dst []shard.Result) []shard.Result {
	return s.sh.LookupBatchStack(s.stack, ks, dst)
}

// shardHealth is the per-shard entry in the /healthz response.
type shardHealth struct {
	Shard               int    `json:"shard"`
	Health              string `json:"health"`
	Pending             int    `json:"pending"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	StaleForMs          int64  `json:"stale_for_ms"`
	Commits             uint64 `json:"commits"`
	Failures            uint64 `json:"failures"`
	LastError           string `json:"last_error,omitempty"`
}

// handleHealthz reports liveness and carries the update plane's per-shard
// state (DESIGN.md §11): the aggregate status is the
// worst shard's health, and the endpoint answers 503 only once some
// shard's staleness exceeds the configured budget — a merely degraded
// engine still serves correct answers from the last good engines plus the
// delta overlay, so load balancers should keep it in rotation.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	sramBytes, dramBytes, ranges := 0, 0, 0
	for i := 0; i < s.sh.Shards(); i++ {
		e := s.sh.Engine(i)
		sramBytes += e.SRAMUsage().Total
		dramBytes += e.DRAMFootprint()
		ranges += e.Ranges().Len()
	}
	worst := shard.Healthy
	states := make([]shardHealth, 0, s.sh.Shards())
	for _, st := range s.sh.Statuses() {
		if st.Health > worst {
			worst = st.Health
		}
		h := shardHealth{
			Shard:               st.Shard,
			Health:              st.Health.String(),
			Pending:             st.Pending,
			ConsecutiveFailures: st.ConsecutiveFailures,
			StaleForMs:          st.StaleFor.Milliseconds(),
			Commits:             st.Commits,
			Failures:            st.Failures,
		}
		if st.LastErr != nil {
			h.LastError = st.LastErr.Error()
		}
		states = append(states, h)
	}
	status, code := "ok", http.StatusOK
	switch worst {
	case shard.Degraded:
		status = "degraded"
	case shard.Stale:
		status, code = "stale", http.StatusServiceUnavailable
	}
	writeJSONStatus(w, code, map[string]any{
		"status":          status,
		"width":           s.sh.Width(),
		"shards":          s.sh.Shards(),
		"shard_health":    states,
		"stale_budget_ms": s.sh.StaleBudget().Milliseconds(),
		"ranges":          ranges,
		"sram_bytes":      sramBytes,
		"dram_bytes":      dramBytes,
		"pending_inserts": s.sh.PendingInserts(),
	})
}

// updateRequest is the POST /update JSON shape. The prefix uses the same
// spellings ParseKey accepts for lookups, left-aligned to the engine width.
type updateRequest struct {
	Op     string `json:"op"` // insert | delete | modify
	Prefix string `json:"prefix"`
	Len    int    `json:"len"`
	Action uint64 `json:"action"`
}

// handleUpdate applies one rule-table update through the delta-buffer path
// (§6.5): inserts and deletes are visible to queries immediately, the
// retrain happens in the background committer. Backpressure is explicit —
// a full delta buffer answers 429 so clients slow down instead of the
// committer falling further behind.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var req updateRequest
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON body: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, fmt.Errorf("trailing data after JSON body"))
		return
	}
	prefix, err := ParseKey(req.Prefix, s.sh.Width())
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("prefix: %w", err))
		return
	}
	switch req.Op {
	case "insert":
		err = s.sh.Insert(lpm.Rule{Prefix: prefix, Len: req.Len, Action: req.Action})
	case "delete":
		err = s.sh.Delete(prefix, req.Len)
	case "modify":
		err = s.sh.ModifyAction(prefix, req.Len, req.Action)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown op %q (want insert, delete or modify)", req.Op))
		return
	}
	if err != nil {
		if errors.Is(err, core.ErrDeltaFull) {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, map[string]any{
		"op":              req.Op,
		"ok":              true,
		"pending_inserts": s.sh.PendingInserts(),
	})
}

// jsonEnc pairs a staging buffer with a json.Encoder writing into it, pooled
// so the hot endpoints (/lookup, /batch) reuse the encoder state and buffer
// instead of allocating both per request. Staging also yields an exact
// Content-Length, which keeps HTTP honest as the baseline the wire plane is
// compared against.
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
	writeJSONStatus(w, http.StatusOK, v)
}

func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	e := jsonEncPool.Get().(*jsonEnc)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		jsonEncPool.Put(e)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(e.buf.Len()))
	w.WriteHeader(code)
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
