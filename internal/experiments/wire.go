package experiments

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"net/http/httputil"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/load"
	"neurolpm/internal/lpm"
	"neurolpm/internal/serve"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/wire"
	"neurolpm/internal/workload"
)

// WireCell is one row of the wire-vs-HTTP serving experiment (E29,
// DESIGN.md §17): closed-loop throughput and latency of the same sharded
// engine behind the HTTP/JSON endpoint and the binary wire protocol. The
// bytes-per-query row is computed from the canonical encodings — no timing —
// and is the deterministic anchor the bench guard pins.
type WireCell struct {
	Config        string
	Conns         int
	QPS           float64
	P50us         float64
	P99us         float64
	VsHTTPX       float64 // qps ratio against the same-conns HTTP row
	BytesPerQuery float64
	Errors        int
	Mismatches    int
	Deterministic bool
}

// wireFanConns is the many-client fan-in: one outstanding lookup on each of
// many connections, so no connection's read ever delivers a batch.
const wireFanConns = 32

// wireMeasureWindow sizes each row's closed-loop measurement to the scale.
func wireMeasureWindow(sc Scale) time.Duration {
	switch {
	case sc.TraceLen >= 1_000_000:
		return 3 * time.Second
	case sc.TraceLen >= 100_000:
		return 800 * time.Millisecond
	default:
		return 300 * time.Millisecond
	}
}

// Wire runs E29: the ripe workload served by one sharded engine through both
// data planes — HTTP/JSON and wire — at a 32-connection closed-loop fan-in,
// plus single-connection rows for the light-load p50 parity story and the
// deterministic bytes-per-query ratio.
func Wire(sc Scale) ([]WireCell, error) {
	rs, err := workload.Generate(workload.Profiles()["ripe"], sc.Rules["ripe"], sc.Seed)
	if err != nil {
		return nil, err
	}
	traceLen := sc.TraceLen
	if traceLen > 100000 {
		traceLen = 100000 // closed-loop rows replay the trace cyclically
	}
	trace, err := workload.GenerateTrace(rs, workload.DefaultTrace(traceLen, sc.Seed+3))
	if err != nil {
		return nil, err
	}
	oracle := lpm.NewTrieMatcher(rs)
	expected := make([]load.Result, len(trace))
	for i, k := range trace {
		a, ok := oracle.Lookup(k)
		expected[i] = load.Result{Action: a, Matched: ok}
	}

	sh, err := shard.BuildUpdatable(rs, sc.engineConfig(), 4, 0)
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	srv := serve.NewSharded(sh, telemetry.NewRegistry())

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	httpAddr := hs.Listener.Addr().String()

	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ws := serve.NewWireServer(srv, wl)
	go ws.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ws.Shutdown(ctx)
	}()
	wireAddr := wl.Addr().String()

	window := wireMeasureWindow(sc)
	run := func(config string, proto load.Proto, addr string, conns int) (WireCell, error) {
		rep, err := load.Run(load.Config{
			Addr: addr, Proto: proto, Conns: conns, Duration: window,
			Trace: trace, Width: rs.Width, Expected: expected, Seed: sc.Seed,
		})
		if err != nil {
			return WireCell{}, fmt.Errorf("%s: %w", config, err)
		}
		return WireCell{
			Config:     config,
			Conns:      conns,
			QPS:        rep.Achieved,
			P50us:      float64(rep.P50.Nanoseconds()) / 1e3,
			P99us:      float64(rep.P99.Nanoseconds()) / 1e3,
			Errors:     int(rep.Errors),
			Mismatches: int(rep.Mismatches),
		}, nil
	}

	var cells []WireCell
	httpFan, err := run("http/json", load.ProtoHTTP, httpAddr, wireFanConns)
	if err != nil {
		return nil, err
	}
	httpFan.VsHTTPX = 1
	cells = append(cells, httpFan)

	wireFan, err := run("wire", load.ProtoWire, wireAddr, wireFanConns)
	if err != nil {
		return nil, err
	}
	wireFan.VsHTTPX = ratio(wireFan.QPS, httpFan.QPS)
	cells = append(cells, wireFan)

	// Light-load parity: one closed-loop connection against each plane. A
	// lone request is a batch of one answered on arrival, so the wire p50
	// must not sit above HTTP's.
	http1, err := run("http/json 1-conn", load.ProtoHTTP, httpAddr, 1)
	if err != nil {
		return nil, err
	}
	http1.VsHTTPX = 1
	cells = append(cells, http1)
	wire1, err := run("wire 1-conn", load.ProtoWire, wireAddr, 1)
	if err != nil {
		return nil, err
	}
	wire1.VsHTTPX = ratio(wire1.QPS, http1.QPS)
	cells = append(cells, wire1)

	// Deterministic anchor: canonical per-query byte cost of each plane for
	// one representative lookup — HTTP request + JSON response as actually
	// serialized, vs the wire lookup + result frames.
	hb, wb := wireBytesPerQuery(srv, trace[0])
	cells[0].BytesPerQuery, cells[2].BytesPerQuery = hb, hb
	cells[1].BytesPerQuery, cells[3].BytesPerQuery = wb, wb
	cells = append(cells, WireCell{
		Config:        "bytes/query ratio",
		BytesPerQuery: wb,
		VsHTTPX:       ratio(hb, wb),
		Deterministic: true,
	})
	return cells, nil
}

// wireBytesPerQuery computes the canonical on-the-wire byte cost of one
// lookup on each plane: the HTTP GET request (as a client serializes it)
// plus the server's actual JSON response, and the wire request frame plus
// its result frame. Purely deterministic — it reruns identically at any
// scale, which is what lets the bench guard pin the ratio.
func wireBytesPerQuery(srv *serve.Server, k keys.Value) (httpBytes, wireBytes float64) {
	req := httptest.NewRequest("GET", "/lookup?key="+k.String(), nil)
	req.Host = "lpmserve"
	reqDump, _ := httputil.DumpRequest(req, false)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	respDump, _ := httputil.DumpResponse(rec.Result(), true)
	httpBytes = float64(len(reqDump) + len(respDump))

	lookup := wire.AppendLookup(nil, 1, k)
	result := wire.AppendResult(nil, 1, 42, true)
	wireBytes = float64(len(lookup) + len(result))
	return httpBytes, wireBytes
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// WireTable renders E29.
func WireTable(cells []WireCell) *Table {
	t := &Table{
		Title:  "Wire data plane vs HTTP/JSON: closed-loop fan-in, single connection, and per-query bytes (ripe workload)",
		Header: []string{"config", "conns", "qps", "p50 µs", "p99 µs", "vs http x", "bytes/query", "errors", "mismatches"},
		Notes: []string{
			"DESIGN.md §17: same sharded engine and batchStack entry point behind every row; only the data plane differs",
			"wire rows: each connection is answered on its own reader goroutine; a closed loop keeps one lookup outstanding per connection, so every batch-plane call carries one key",
			"bytes/query ratio row is deterministic (canonical encodings, no timing) — the bench guard pins it",
			"mismatches are disagreements with the trie oracle and must be 0 in every row",
		},
	}
	for _, c := range cells {
		if c.Deterministic {
			t.Rows = append(t.Rows, []string{
				c.Config, "-", "-", "-", "-", f2(c.VsHTTPX), f1(c.BytesPerQuery), "-", "-",
			})
			continue
		}
		t.Rows = append(t.Rows, []string{
			c.Config, fi(c.Conns), f1(c.QPS), f1(c.P50us), f1(c.P99us),
			f2(c.VsHTTPX), f1(c.BytesPerQuery), fi(c.Errors), fi(c.Mismatches),
		})
	}
	return t
}
