package serve

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
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

// wantAnswer checks one wire lookup of k against (action, matched).
func wantAnswer(t *testing.T, c *client, k keys.Value, action uint64, matched bool) {
	t.Helper()
	res, err := c.lookup(k)
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
func wantRejected(t *testing.T, c *client, id uint64, frame []byte, code uint8) {
	t.Helper()
	if err := c.send(frame); err != nil {
		t.Fatal(err)
	}
	f, err := c.recv()
	if err != nil {
		t.Fatal(err)
	}
	var re *remoteError
	if f.Op != opError || f.ID != id || !errors.As(frameError(f), &re) || re.code != code {
		t.Fatalf("answer is %s id=%d payload %q, want error code %d for id %d", f.Op, f.ID, f.Payload, code, id)
	}
	if err := c.ping(); err != nil {
		t.Fatalf("connection unusable after the rejected frame: %v", err)
	}
}

// opRetiredBatch is the opcode of the retired batch frame, unassigned since.
const opRetiredBatch = wire.Op(0x02)

// batchPayload is a payload of the retired batch frame: a key count, then n
// zero keys.
func batchPayload(count uint32, n int) []byte {
	p := binary.LittleEndian.AppendUint32(nil, count)
	return append(p, make([]byte, 16*n)...)
}

// oracleKeys returns n 32-bit keys from seed, led by three edge keys.
func oracleKeys(seed int64, n int) []keys.Value {
	rng := rand.New(rand.NewSource(seed))
	ks := []keys.Value{keys.FromUint64(0x10203040), keys.FromUint64(0xffffffff), {}}
	for len(ks) < n {
		ks = append(ks, keys.FromUint64(rng.Uint64()&(1<<32-1)))
	}
	return ks
}

// wantPipelinedMatchesOracle sends a lookup frame for every key in one write
// and matches each answer, by its id, against the trie oracle. The server
// gathers the frames one read delivers into LookupBatchInto calls — the shard
// fan-out, at more than one shard — so the keys must take fewer calls than
// there are keys.
func wantPipelinedMatchesOracle(t *testing.T, srv *Server, c *client, oracle *lpm.TrieMatcher, ks []keys.Value) {
	t.Helper()
	dispatches := func() uint64 { return counter(t, srv.reg, "neurolpm_wire_coalesce_dispatches_total") }
	before := dispatches()
	pending := make(map[uint64]keys.Value, len(ks))
	ids := make([]uint64, len(ks))
	for i, k := range ks {
		ids[i] = c.id()
		pending[ids[i]] = k
	}
	var frames []byte
	for i, k := range ks {
		frames = wire.AppendLookup(frames, ids[i], k)
	}
	if err := c.send(frames); err != nil {
		t.Fatal(err)
	}
	for range ks {
		f, err := c.recv()
		if err != nil {
			t.Fatalf("%d of %d answers missing: %v", len(pending), len(ks), err)
		}
		k, ok := pending[f.ID]
		res, err := f.Result()
		if !ok || f.Op != wire.OpResult || err != nil {
			t.Fatalf("answer %s id=%d (%v), want a result for an outstanding lookup", f.Op, f.ID, err)
		}
		delete(pending, f.ID)
		want, wantOK := oracle.Lookup(k)
		if res.Matched != wantOK || (wantOK && res.Action != want) {
			t.Errorf("key %v: got (%d,%v), oracle (%d,%v)", k, res.Action, res.Matched, want, wantOK)
		}
	}
	if n := dispatches() - before; n >= uint64(len(ks)) {
		t.Errorf("%d pipelined lookups took %d batch-plane calls, want fewer", len(ks), n)
	}
}

// TestBatchEndpointShardedMatchesOracle: 500 lookups pipelined in one write to
// 4 shards are answered through the shard fan-out, every key as the trie
// oracle answers it.
func TestBatchEndpointShardedMatchesOracle(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	wantPipelinedMatchesOracle(t, srv, dialWire(t, srv), lpm.NewTrieMatcher(rs), oracleKeys(5, 500))
}

// TestBatchEndpointSingleEngine: the same at one shard, the degenerate
// topology, on an SRAM-only engine.
func TestBatchEndpointSingleEngine(t *testing.T) {
	srv, _ := buildTestServer(t, false, telemetry.NewRegistry())
	wantPipelinedMatchesOracle(t, srv, dialWire(t, srv), lpm.NewTrieMatcher(buildTestRuleSet(t)), oracleKeys(5, 500))
}

// TestBatchBadInputTable is the bad-input sweep for lookup requests. Cases
// named get send single-key lookup frames and the case named post a frame of
// the retired batch opcode; each is refused for its own id — malformed, or a
// bad request for an opcode the server does not serve — and the connection
// keeps serving. A frame as long as a 65 536-key batch is refused from its
// length prefix alone, and the connection closes: past a length it will not
// read, the stream cannot be resynchronized.
func TestBatchBadInputTable(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, true)
	c := dialWireAt(t, addr)
	cases := []struct {
		name    string
		op      wire.Op
		payload []byte
		code    uint8
	}{
		{"get no keys", wire.OpLookup, nil, wire.ErrMalformed},
		{"get bad key", wire.OpLookup, make([]byte, 15), wire.ErrMalformed},
		{"post wrong type", opRetiredBatch, batchPayload(1, 1), wire.ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			id := c.id()
			wantRejected(t, c, id, reframe(appendPing(nil, id), tc.op, tc.payload), tc.code)
		})
	}
	t.Run("post oversized", func(t *testing.T) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// The length prefix declares 65 536 keys; only the count follows it.
		frame := reframe(appendPing(nil, 1), opRetiredBatch, batchPayload(65536, 0))
		binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4+16*65536))
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		f := readFrames(t, conn, br, 1)[0]
		if f.Op != opError || len(f.Payload) == 0 || f.Payload[0] != wire.ErrMalformed {
			t.Fatalf("answer is %s payload %q, want a malformed-frame error", f.Op, f.Payload)
		}
		if _, _, err := wire.ReadFrame(br, nil); err != io.EOF {
			t.Fatalf("after the error frame: %v, want the connection closed", err)
		}
	})
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
	k, _ := parseKey("0x01020304", 32)
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
