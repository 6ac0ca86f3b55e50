package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/wire"
)

func buildShardedServer(t *testing.T) (*Server, *lpm.RuleSet, *shard.ShardedUpdatable) {
	t.Helper()
	rs := buildTestRuleSet(t)
	sh, err := shard.BuildUpdatable(rs, quickConfig(true), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sh.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return NewSharded(sh, telemetry.NewRegistry()), rs, sh
}

func getJSON(t *testing.T, h http.Handler, target string, into any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	if rec.Code == http.StatusOK && into != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s: bad JSON: %v", target, err)
		}
	}
	return rec
}

// dialWire serves srv on a WireServer for the test's lifetime and returns a
// client connected to it.
func dialWire(t *testing.T, srv *Server) *wire.Client {
	t.Helper()
	addr, _, _ := startWire(t, srv, true)
	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wantAnswer checks one wire lookup of k against (action, matched).
func wantAnswer(t *testing.T, c *wire.Client, k keys.Value, action uint64, matched bool) {
	t.Helper()
	res, err := c.Lookup(k)
	if err != nil {
		t.Fatalf("lookup %v: %v", k, err)
	}
	if res.Matched != matched || (matched && res.Action != action) {
		t.Fatalf("lookup %v = (%d,%v), want (%d,%v)", k, res.Action, res.Matched, action, matched)
	}
}

// reframe rewrites an encoded request frame: op replaces its opcode and p its
// payload, and the length prefix is fixed to match.
func reframe(frame []byte, op wire.Op, p []byte) []byte {
	const header = 16 // length prefix, magic, version, opcode, id
	out := append(append([]byte(nil), frame[:header]...), p...)
	out[7] = byte(op)
	binary.LittleEndian.PutUint32(out, uint32(len(out)-4))
	return out
}

// wantRejected sends one raw request frame carrying id and requires an error
// frame with code for that id, after which the connection still answers a
// ping: a bad payload costs its own answer, not the connection.
func wantRejected(t *testing.T, c *wire.Client, id uint64, frame []byte, code uint8) {
	t.Helper()
	if err := c.Send(func(b []byte) []byte { return append(b, frame...) }); err != nil {
		t.Fatal(err)
	}
	f, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	var re *wire.RemoteError
	if f.Op != wire.OpError || f.ID != id || !errors.As(f.Err(), &re) || re.Code != code {
		t.Fatalf("answer is %s id=%d payload %q, want error code %d for id %d", f.Op, f.ID, f.Payload, code, id)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection unusable after the rejected frame: %v", err)
	}
}

// batchPayload is an OpBatch payload declaring count keys and carrying n zero
// keys and extra bytes more.
func batchPayload(count uint32, n, extra int) []byte {
	p := binary.LittleEndian.AppendUint32(nil, count)
	return append(p, make([]byte, 16*n+extra)...)
}

// TestBatchEndpointShardedMatchesOracle: an OpBatch frame at 4 shards is
// answered positionally, every key as the trie oracle answers it.
func TestBatchEndpointShardedMatchesOracle(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	c := dialWire(t, srv)
	oracle := lpm.NewTrieMatcher(rs)

	rng := rand.New(rand.NewSource(5))
	ks := []keys.Value{keys.FromUint64(0x10203040), keys.FromUint64(0xffffffff), {}}
	for len(ks) < 500 {
		ks = append(ks, keys.FromUint64(rng.Uint64()&(1<<32-1)))
	}
	res, err := c.Batch(ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(ks) {
		t.Fatalf("batch of %d keys answered %d", len(ks), len(res))
	}
	for i, k := range ks {
		want, wantOK := oracle.Lookup(k)
		if res[i].Matched != wantOK || (wantOK && res[i].Action != want) {
			t.Errorf("key %d (%v): got (%d,%v), oracle (%d,%v)", i, k, res[i].Action, res[i].Matched, want, wantOK)
		}
	}
}

// TestBatchEndpointSingleEngine: the same at one shard, the degenerate
// topology, on an SRAM-only engine.
func TestBatchEndpointSingleEngine(t *testing.T) {
	srv, _ := buildTestServer(t, false, telemetry.NewRegistry())
	c := dialWire(t, srv)
	oracle := lpm.NewTrieMatcher(buildTestRuleSet(t))
	ks := []keys.Value{keys.FromUint64(0x01020304), keys.FromUint64(0xf0f0f0f0), keys.FromUint64(0x0a010203)}
	res, err := c.Batch(ks)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range ks {
		want, wantOK := oracle.Lookup(k)
		if res[i].Matched != wantOK || (wantOK && res[i].Action != want) {
			t.Errorf("result %d: got (%d,%v), oracle (%d,%v)", i, res[i].Action, res[i].Matched, want, wantOK)
		}
	}
}

// TestBatchEndpointRejectsBadInput: a batch of no keys, one over
// wire.MaxBatchKeys and one whose key array is cut short are each refused as
// malformed on a connection that stays usable.
func TestBatchEndpointRejectsBadInput(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	c := dialWire(t, srv)
	for _, p := range [][]byte{
		batchPayload(0, 0, 0),
		batchPayload(wire.MaxBatchKeys+1, 1, 0),
		batchPayload(3, 2, 8),
	} {
		id := c.ID()
		wantRejected(t, c, id, reframe(wire.AppendPing(nil, id), wire.OpBatch, p), wire.ErrMalformed)
	}
}

// TestBatchBadInputTable is the bad-input sweep for lookup requests. Cases
// named get send single-key lookup frames and cases named post send batch
// frames; each is refused for its own id — malformed, or a bad request for a
// response opcode sent as a request — and the connection keeps serving.
func TestBatchBadInputTable(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	c := dialWire(t, srv)
	cases := []struct {
		name    string
		op      wire.Op
		payload []byte
		code    uint8
	}{
		{"get no keys", wire.OpLookup, nil, wire.ErrMalformed},
		{"get bad key", wire.OpLookup, make([]byte, 15), wire.ErrMalformed},
		{"post malformed", wire.OpBatch, []byte{1, 0}, wire.ErrMalformed},
		{"post wrong type", wire.OpBatchResult, batchPayload(1, 1, 0), wire.ErrBadRequest},
		{"post empty list", wire.OpBatch, batchPayload(0, 0, 0), wire.ErrMalformed},
		{"post null keys", wire.OpBatch, nil, wire.ErrMalformed},
		{"post trailing data", wire.OpBatch, batchPayload(1, 2, 0), wire.ErrMalformed},
		{"post truncated keys", wire.OpBatch, batchPayload(3, 2, 8), wire.ErrMalformed},
		{"post oversized", wire.OpBatch, batchPayload(wire.MaxBatchKeys+1, 0, 0), wire.ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := c.ID()
			wantRejected(t, c, id, reframe(wire.AppendPing(nil, id), tc.op, tc.payload), tc.code)
		})
	}
}

func TestShardedLookupAndHealthz(t *testing.T) {
	srv, rs, sh := buildShardedServer(t)
	h := srv.Handler()
	oracle := lpm.NewTrieMatcher(rs)

	var lr lookupResponse
	rec := getJSON(t, h, "/lookup?key=0x01020304", &lr)
	if rec.Code != http.StatusOK {
		t.Fatalf("/lookup: %d %s", rec.Code, rec.Body)
	}
	k, _ := ParseKey("0x01020304", 32)
	want, wantOK := oracle.Lookup(k)
	if lr.Matched != wantOK || (wantOK && lr.Action != want) {
		t.Errorf("/lookup: got (%d,%v), oracle (%d,%v)", lr.Action, lr.Matched, want, wantOK)
	}

	var hz map[string]any
	rec = getJSON(t, h, "/healthz", &hz)
	if rec.Code != http.StatusOK {
		t.Fatalf("/healthz: %d", rec.Code)
	}
	if got := hz["shards"]; got != float64(sh.Shards()) {
		t.Errorf("healthz shards = %v, want %d", got, sh.Shards())
	}

	// /trace routes to the key's sub-engine and returns its timed record.
	var trc traceResponse
	rec = getJSON(t, h, "/trace?key=0x01020304", &trc)
	if rec.Code != http.StatusOK {
		t.Fatalf("/trace: %d %s", rec.Code, rec.Body)
	}
	if want := sh.ShardOf(keys.FromUint64(0x01020304)); trc.Record.TotalNs <= 0 || int(trc.Record.Shard) != want {
		t.Errorf("/trace record %+v, want a timed record from shard %d", trc.Record, want)
	}
}
