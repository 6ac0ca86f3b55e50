package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/wire"
)

// startWire runs a WireServer for srv on a fresh loopback listener under
// ServeUnits. The returned channels let a test drive shutdown by hand
// (send SIGTERM on stop, read the result from errc); the cleanup calls the
// idempotent stopFn, which is a no-op if the body already consumed errc
// through it. Tests that read errc directly must not also call stopFn.
func startWire(t *testing.T, srv *Server, autoStop bool) (addr string, stop chan os.Signal, errc chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startWireOn(t, srv, l, autoStop)
}

// startWireOn is startWire on a listener the test made (and may have wrapped).
func startWireOn(t *testing.T, srv *Server, l net.Listener, autoStop bool) (addr string, stop chan os.Signal, errc chan error) {
	t.Helper()
	ws := NewWireServer(srv, l)
	stop = make(chan os.Signal, 1)
	errc = make(chan error, 1)
	go func() { errc <- ServeUnits(stop, 5*time.Second, ws) }()
	if autoStop {
		t.Cleanup(func() {
			stop <- syscall.SIGTERM
			select {
			case <-errc:
			case <-time.After(10 * time.Second):
				t.Error("ServeUnits did not exit during cleanup")
			}
		})
	}
	return l.Addr().String(), stop, errc
}

// TestWireServerMatchesOracle drives every opcode over a real TCP connection
// against the sharded server and checks lookups, one at a time and pipelined,
// against the trie oracle.
func TestWireServerMatchesOracle(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, true)
	oracle := lpm.NewTrieMatcher(rs)
	c := dialWireAt(t, addr)

	if err := c.ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	rng := rand.New(rand.NewSource(7))
	ks := make([]keys.Value, 200)
	for i := range ks {
		ks[i] = keys.FromUint64(rng.Uint64() & (1<<32 - 1))
	}
	for _, k := range ks[:50] {
		res, err := c.lookup(k)
		if err != nil {
			t.Fatalf("lookup %v: %v", k, err)
		}
		action, ok := oracle.Lookup(k)
		if res.Matched != ok || (ok && res.Action != action) {
			t.Fatalf("lookup %v = (%d,%v), oracle (%d,%v)", k, res.Action, res.Matched, action, ok)
		}
	}
	wantPipelinedMatchesOracle(t, srv, c, oracle, ks)

	// An acknowledged update is in the engine, so the next lookup sees it.
	probe := keys.FromUint64(0x7f000001)
	if err := c.update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: probe, Len: 32, Action: 4242}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	res, err := c.lookup(probe)
	if err != nil || !res.Matched || res.Action != 4242 {
		t.Fatalf("lookup after insert = (%d,%v,%v), want (4242,true,nil)", res.Action, res.Matched, err)
	}
	if err := c.update(wire.RuleUpdate{Op: wire.UpdateDelete, Prefix: probe, Len: 32}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	action, ok := oracle.Lookup(probe)
	res, err = c.lookup(probe)
	if err != nil || res.Matched != ok || (ok && res.Action != action) {
		t.Fatalf("lookup after delete = (%d,%v,%v), oracle (%d,%v)", res.Action, res.Matched, err, action, ok)
	}
}

// readFrames reads n response frames from br (payloads copied out of the
// read buffer), failing the test if they do not all arrive within two seconds.
func readFrames(t *testing.T, conn net.Conn, br *bufio.Reader, n int) []wire.Frame {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var buf []byte
	out := make([]wire.Frame, 0, n)
	for len(out) < n {
		f, b, err := wire.ReadFrame(br, buf)
		buf = b
		if err != nil {
			t.Fatalf("response %d of %d: %v", len(out)+1, n, err)
		}
		f.Payload = append([]byte(nil), f.Payload...)
		out = append(out, f)
	}
	return out
}

// wantResult checks that f answers request id with (action, matched).
func wantResult(t *testing.T, f wire.Frame, id uint64, action uint64, matched bool) {
	t.Helper()
	res, err := f.Result()
	if f.Op != wire.OpResult || f.ID != id || err != nil {
		t.Fatalf("frame %s id=%d (%v), want result id=%d", f.Op, f.ID, err, id)
	}
	if res.Matched != matched || (matched && res.Action != action) {
		t.Fatalf("id %d = (%d,%v), want (%d,%v)", id, res.Action, res.Matched, action, matched)
	}
}

// TestWireBatchingRules pins the reader's per-connection batching rules
// (DESIGN.md §17) over raw connections: each case pipelines several frames in
// one write and checks what comes back, and in what order, against the oracle.
func TestWireBatchingRules(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, true)
	oracle := lpm.NewTrieMatcher(rs)
	dial := func(t *testing.T) (net.Conn, *bufio.Reader) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn, bufio.NewReader(conn)
	}
	rng := rand.New(rand.NewSource(11))
	randKey := func() keys.Value { return keys.FromUint64(rng.Uint64() & (1<<32 - 1)) }

	// Answers are never held behind bytes that have not arrived: a partial
	// frame at the end of a read flushes what is finished, then blocks.
	t.Run("partial frame flushes finished answers", func(t *testing.T) {
		conn, br := dial(t)
		ks := []keys.Value{randKey(), randKey(), randKey(), randKey()}
		var b []byte
		for i, k := range ks {
			b = wire.AppendLookup(b, uint64(i+1), k)
		}
		cut := len(b) - 32 + 10 // three frames and 10 bytes of the fourth
		if _, err := conn.Write(b[:cut]); err != nil {
			t.Fatal(err)
		}
		for i, f := range readFrames(t, conn, br, 3) {
			action, ok := oracle.Lookup(ks[i])
			wantResult(t, f, uint64(i+1), action, ok)
		}
		if _, err := conn.Write(b[cut:]); err != nil {
			t.Fatal(err)
		}
		action, ok := oracle.Lookup(ks[3])
		wantResult(t, readFrames(t, conn, br, 1)[0], 4, action, ok)
	})

	// An update pipelined between lookups is applied between them, and every
	// response keeps its request's position.
	t.Run("update lands between the lookups around it", func(t *testing.T) {
		conn, br := dial(t)
		k := keys.FromUint64(0x7f000001)
		baseAction, baseOK := oracle.Lookup(k)
		var b []byte
		b = wire.AppendLookup(b, 1, k)
		b = wire.AppendUpdate(b, 2, wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: k, Len: 32, Action: 4242})
		b = wire.AppendLookup(b, 3, k)
		b = wire.AppendUpdate(b, 4, wire.RuleUpdate{Op: wire.UpdateDelete, Prefix: k, Len: 32})
		b = wire.AppendLookup(b, 5, k)
		b = appendPing(b, 6)
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		fs := readFrames(t, conn, br, 6)
		wantResult(t, fs[0], 1, baseAction, baseOK)
		wantResult(t, fs[2], 3, 4242, true)
		wantResult(t, fs[4], 5, baseAction, baseOK)
		for i, op := range map[int]wire.Op{1: wire.OpUpdateResult, 3: wire.OpUpdateResult, 5: opPong} {
			if fs[i].Op != op || fs[i].ID != uint64(i+1) {
				t.Errorf("response %d is %s id=%d, want %s id=%d", i+1, fs[i].Op, fs[i].ID, op, i+1)
			}
		}
	})

	// One read's lookups share batch-plane calls, at most maxCoalesceBatch each.
	t.Run("300 lookups batch under the 256 cap", func(t *testing.T) {
		conn, br := dial(t)
		dispatches := func() uint64 { return counter(t, srv.reg, "neurolpm_wire_coalesce_dispatches_total") }
		before := dispatches()
		ks := make([]keys.Value, 300)
		var b []byte
		for i := range ks {
			ks[i] = randKey()
			b = wire.AppendLookup(b, uint64(i+1), ks[i])
		}
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		for i, f := range readFrames(t, conn, br, len(ks)) {
			action, ok := oracle.Lookup(ks[i])
			wantResult(t, f, uint64(i+1), action, ok)
		}
		if n := dispatches() - before; n < 2 || n >= 300 {
			t.Errorf("300 pipelined lookups took %d batch-plane calls, want 2..299", n)
		}
	})

	// A bad payload costs one error frame in its own position, not the
	// lookups around it and not the connection.
	t.Run("malformed payload between lookups", func(t *testing.T) {
		conn, br := dial(t)
		k1, k3 := randKey(), randKey()
		short := wire.AppendLookup(nil, 2, randKey())
		short = short[:len(short)-1] // a 15-byte key
		binary.LittleEndian.PutUint32(short, uint32(len(short)-4))
		b := wire.AppendLookup(nil, 1, k1)
		b = append(b, short...)
		b = wire.AppendLookup(b, 3, k3)
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
		fs := readFrames(t, conn, br, 3)
		action, ok := oracle.Lookup(k1)
		wantResult(t, fs[0], 1, action, ok)
		if fs[1].Op != opError || fs[1].ID != 2 || len(fs[1].Payload) == 0 || fs[1].Payload[0] != wire.ErrMalformed {
			t.Fatalf("response 2 is %s id=%d payload %q, want a malformed-frame error for id 2", fs[1].Op, fs[1].ID, fs[1].Payload)
		}
		action, ok = oracle.Lookup(k3)
		wantResult(t, fs[2], 3, action, ok)
		if _, err := conn.Write(appendPing(nil, 4)); err != nil {
			t.Fatal(err)
		}
		if f := readFrames(t, conn, br, 1)[0]; f.Op != opPong || f.ID != 4 {
			t.Fatalf("connection unusable after a malformed payload: got %s id=%d", f.Op, f.ID)
		}
	})
}

// TestWireSingleEngineMode exercises lookup and update frames against one
// shard — the degenerate topology, a single engine behind the
// router — which must serve both like any other shard count.
func TestWireSingleEngineMode(t *testing.T) {
	srv, eng := buildTestServer(t, true, telemetry.NewRegistry())
	addr, _, _ := startWire(t, srv, true)

	c := dialWireAt(t, addr)
	k := freeKey32(t, buildTestRuleSet(t), 0)
	res, err := c.lookup(k)
	if err != nil {
		t.Fatal(err)
	}
	action, ok := eng.Lookup(k)
	if res.Matched != ok || (ok && res.Action != action) {
		t.Fatalf("wire (%d,%v) disagrees with engine (%d,%v)", res.Action, res.Matched, action, ok)
	}
	// Acknowledged means in the engine.
	if err := c.update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: k, Len: 32, Action: 4242}); err != nil {
		t.Fatalf("update on one shard: %v", err)
	}
	if res, err = c.lookup(k); err != nil || !res.Matched || res.Action != 4242 {
		t.Fatalf("lookup after insert = (%+v, %v), want action 4242", res, err)
	}
}

// TestWireMalformedFramesDoNotKillServer: a client sending garbage gets an
// error/disconnect while other connections keep serving.
func TestWireMalformedFramesDoNotKillServer(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, true)

	good := dialWireAt(t, addr)

	bad, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bad.Write([]byte("GET /lookup?key=1 HTTP/1.1\r\nHost: x\r\n\r\n"))
	// The server must answer with an error frame (bad magic) and close.
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	if _, err := bad.Read(buf); err != nil {
		t.Fatalf("no response to garbage: %v", err)
	}
	bad.Close()

	if err := good.ping(); err != nil {
		t.Fatalf("healthy connection broken by another client's garbage: %v", err)
	}
}

// TestWireDrainsInFlightFrames is the PR 10 shutdown regression test: a
// lookup sent immediately before SIGTERM — still in the kernel buffer or
// mid-decode when the signal lands — must be answered before the connection
// closes.
func TestWireDrainsInFlightFrames(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	addr, stop, errc := startWire(t, srv, false)
	oracle := lpm.NewTrieMatcher(rs)

	c := dialWireAt(t, addr)
	if err := c.ping(); err != nil { // the connection is accepted and served
		t.Fatal(err)
	}

	k := keys.FromUint64(0x0a010203)
	id := c.id()
	if err := c.send(wire.AppendLookup(nil, id, k)); err != nil {
		t.Fatal(err)
	}
	stop <- syscall.SIGTERM

	f, err := c.recv()
	if err != nil {
		t.Fatalf("in-flight wire frame not drained: %v", err)
	}
	if f.ID != id || f.Op != wire.OpResult {
		t.Fatalf("drained response frame %s id=%d, want result id=%d", f.Op, f.ID, id)
	}
	res, err := f.Result()
	if err != nil {
		t.Fatal(err)
	}
	action, ok := oracle.Lookup(k)
	if res.Matched != ok || (ok && res.Action != action) {
		t.Fatalf("drained answer (%d,%v), oracle (%d,%v)", res.Action, res.Matched, action, ok)
	}

	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("ServeUnits returned %v, want nil on clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUnits did not return after drain")
	}
	// The listener must be closed after shutdown.
	if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		t.Fatal("wire listener still accepting after shutdown")
	}
}

// graceEdgeListener hands the server connections whose reads, once drain has
// set a read deadline, return their bytes only after that deadline has passed:
// the frame was read inside the grace, everything after the read runs outside
// it. That is a frame landing in the grace's last instant (or a reader
// descheduled after its read), made to happen on every run.
type graceEdgeListener struct {
	net.Listener
	draining chan struct{} // closed when drain has bounded the connection
}

func (l graceEdgeListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &graceEdgeConn{Conn: conn, draining: l.draining}, nil
}

type graceEdgeConn struct {
	net.Conn
	draining chan struct{}

	mu       sync.Mutex
	readDead time.Time
}

func (c *graceEdgeConn) SetDeadline(t time.Time) error {
	c.noteReadDeadline(t)
	return c.Conn.SetDeadline(t)
}

func (c *graceEdgeConn) SetReadDeadline(t time.Time) error {
	c.noteReadDeadline(t)
	return c.Conn.SetReadDeadline(t)
}

func (c *graceEdgeConn) noteReadDeadline(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readDead.IsZero() {
		close(c.draining)
	}
	c.readDead = t
}

func (c *graceEdgeConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	dead := c.readDead
	c.mu.Unlock()
	if n > 0 && !dead.IsZero() {
		time.Sleep(time.Until(dead) + time.Millisecond)
	}
	return n, err
}

// TestWireDrainAnswersFrameAtGraceEdge: a frame read just inside
// wireDrainGrace is answered just outside it, and that answer must still
// reach the client. With one deadline for reads and writes the flush was
// already expired when it ran, and the frame was read and then dropped.
func TestWireDrainAnswersFrameAtGraceEdge(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	draining := make(chan struct{})
	addr, stop, errc := startWireOn(t, srv, graceEdgeListener{l, draining}, false)
	oracle := lpm.NewTrieMatcher(rs)

	c := dialWireAt(t, addr)
	if err := c.ping(); err != nil { // the connection is accepted and served
		t.Fatal(err)
	}

	stop <- syscall.SIGTERM
	select {
	case <-draining:
	case <-time.After(5 * time.Second):
		t.Fatal("drain never bounded the connection")
	}
	k := keys.FromUint64(0x0a010203)
	id := c.id()
	if err := c.send(wire.AppendLookup(nil, id, k)); err != nil {
		t.Fatal(err)
	}
	f, err := c.recv()
	if err != nil {
		t.Fatalf("frame read at the edge of the drain grace was not answered: %v", err)
	}
	res, err := f.Result()
	if err != nil || f.ID != id {
		t.Fatalf("response %s id=%d (%v), want result id=%d", f.Op, f.ID, err, id)
	}
	if action, ok := oracle.Lookup(k); res.Matched != ok || (ok && res.Action != action) {
		t.Fatalf("answer (%d,%v), oracle (%d,%v)", res.Action, res.Matched, action, ok)
	}
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("ServeUnits returned %v, want nil on clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUnits did not return after drain")
	}
}

// stallClient attaches a client that pipelines lookups and never reads a
// response, and returns once it is stalled: a write has blocked, so the
// server's answers have filled both socket buffers and its reader of this
// connection is parked in Flush. A server that keeps accepting the bytes
// anyway gets stallCap of them — more than the buffers between the two ends
// can hold — so the caller's checks always run against a stalled connection.
func stallClient(t *testing.T, addr string) {
	t.Helper()
	const stallCap = 24 << 20
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)
	var chunk []byte
	for i := 0; i < 1024; i++ {
		chunk = wire.AppendLookup(chunk, uint64(i), keys.FromUint64(uint64(i)*2654435761))
	}
	for sent := 0; sent < stallCap; sent += len(chunk) {
		conn.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
		if _, err := conn.Write(chunk); err != nil {
			if !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("stalling client: %v", err)
			}
			return
		}
	}
}

// TestWireStalledClientDoesNotStallOthers: a client that stops reading blocks
// only its own connection. Behind a shared writer it would block every
// connection and queue without bound, so the healthy client works against a
// deadline.
func TestWireStalledClientDoesNotStallOthers(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, true)
	oracle := lpm.NewTrieMatcher(rs)
	stallClient(t, addr)

	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := newClient(conn)
	defer c.conn.Close()
	for i := 0; i < 100; i++ {
		k := keys.FromUint64(uint64(i) * 40503)
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		res, err := c.lookup(k)
		if err != nil {
			t.Fatalf("healthy client's lookup %d beside a stalled client: %v", i, err)
		}
		action, ok := oracle.Lookup(k)
		if res.Matched != ok || (ok && res.Action != action) {
			t.Fatalf("lookup %v = (%d,%v), oracle (%d,%v)", k, res.Action, res.Matched, action, ok)
		}
	}
}

// TestWireDrainWithStalledClient: drain bounds writers as well as readers, so
// a goroutine parked flushing to a client that stopped reading is kicked at
// twice wireDrainGrace instead of holding ServeUnits for the whole drain timeout.
func TestWireDrainWithStalledClient(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	addr, stop, errc := startWire(t, srv, false)
	stallClient(t, addr)

	stop <- syscall.SIGTERM
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("ServeUnits returned %v, want nil: a stalled client must not fail the drain", err)
		}
	case <-time.After(2 * time.Second): // drain timeout is 5s, the write bound 200ms
		t.Fatal("ServeUnits still draining after 2s with a stalled client attached")
	}
}

// TestUnitsDrainTogether: one SIGTERM drains HTTP and wire listeners run
// under the same ServeUnits call (the unified-shutdown satellite).
func TestUnitsDrainTogether(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(srv, wl)
	stop := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- ServeUnits(stop, 5*time.Second, &HTTPUnit{Listener: hl, Handler: srv.Handler()}, ws)
	}()

	c := dialWireAt(t, wl.Addr().String())
	if err := c.ping(); err != nil {
		t.Fatal(err)
	}

	stop <- syscall.SIGTERM
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("ServeUnits: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ServeUnits did not return")
	}
	for _, addr := range []string{hl.Addr().String(), wl.Addr().String()} {
		if _, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			t.Fatalf("listener %s still accepting after shutdown", addr)
		}
	}
}

// TestWireStressCoalescerVsCommits is the -race stress test: N client
// connections hammer single lookups through their readers while a probe rule
// flaps in and out of the engine and commits re-densify its shard. Every
// answer must equal the base oracle or the probe action — nothing else, ever.
func TestWireStressCoalescerVsCommits(t *testing.T) {
	srv, rs, sh := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, true)
	oracle := lpm.NewTrieMatcher(rs)

	const (
		nConns   = 6
		perConn  = 400
		probeKey = 0x7f7f7f7f
		probeAct = 999999
	)
	probe := keys.FromUint64(probeKey)
	baseAction, baseOK := oracle.Lookup(probe)

	stopFlap := make(chan struct{})
	var flapWg sync.WaitGroup
	flapWg.Add(1)
	go func() {
		defer flapWg.Done()
		cu, err := dialClient(addr)
		if err != nil {
			return
		}
		defer cu.conn.Close()
		for i := 0; ; i++ {
			select {
			case <-stopFlap:
				return
			default:
			}
			if i%2 == 0 {
				cu.update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: probe, Len: 32, Action: probeAct})
			} else {
				cu.update(wire.RuleUpdate{Op: wire.UpdateDelete, Prefix: probe, Len: 32})
			}
			if i%8 == 3 {
				sh.Commit(sh.ShardOf(probe))
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < nConns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := dialClient(addr)
			if err != nil {
				t.Errorf("conn %d: %v", g, err)
				return
			}
			defer c.conn.Close()
			rng := rand.New(rand.NewSource(int64(g) * 31))
			for i := 0; i < perConn; i++ {
				var k keys.Value
				if i%7 == 0 {
					k = probe // contended key: base or probe answer allowed
				} else {
					k = keys.FromUint64(rng.Uint64() & (1<<32 - 1))
					if k == probe {
						k = keys.FromUint64(1) // keep the random arm oracle-stable
					}
				}
				res, err := c.lookup(k)
				if err != nil {
					t.Errorf("conn %d lookup %d: %v", g, i, err)
					return
				}
				if k == probe {
					okBase := res.Matched == baseOK && (!baseOK || res.Action == baseAction)
					okProbe := res.Matched && res.Action == probeAct
					if !okBase && !okProbe {
						bad.Add(1)
					}
					continue
				}
				action, ok := oracle.Lookup(k)
				if res.Matched != ok || (ok && res.Action != action) {
					bad.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopFlap)
	flapWg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d oracle mismatches under lookup/commit stress", n)
	}
}
