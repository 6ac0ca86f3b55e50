package serve

import (
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
func startWire(t *testing.T, srv *Server, window time.Duration, autoStop bool) (addr string, stop chan os.Signal, errc chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWireServer(srv, l, window)
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
// against the sharded server and checks lookups against the trie oracle.
func TestWireServerMatchesOracle(t *testing.T) {
	srv, rs, sh := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, 0, true)
	oracle := lpm.NewTrieMatcher(rs)

	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	rng := rand.New(rand.NewSource(7))
	ks := make([]keys.Value, 200)
	for i := range ks {
		ks[i] = keys.FromUint64(rng.Uint64() & (1<<32 - 1))
	}
	for _, k := range ks[:50] {
		res, err := c.Lookup(k)
		if err != nil {
			t.Fatalf("lookup %v: %v", k, err)
		}
		action, ok := oracle.Lookup(k)
		if res.Matched != ok || (ok && res.Action != action) {
			t.Fatalf("lookup %v = (%d,%v), oracle (%d,%v)", k, res.Action, res.Matched, action, ok)
		}
	}
	batch, err := c.Batch(ks)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i, k := range ks {
		action, ok := oracle.Lookup(k)
		if batch[i].Matched != ok || (ok && batch[i].Action != action) {
			t.Fatalf("batch key %d (%v) = (%d,%v), oracle (%d,%v)", i, k, batch[i].Action, batch[i].Matched, action, ok)
		}
	}

	// Updates flow through the delta buffer and are immediately visible.
	probe := keys.FromUint64(0x7f000001)
	if _, err := c.Update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: probe, Len: 32, Action: 4242}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	res, err := c.Lookup(probe)
	if err != nil || !res.Matched || res.Action != 4242 {
		t.Fatalf("lookup after insert = (%d,%v,%v), want (4242,true,nil)", res.Action, res.Matched, err)
	}
	if _, err := c.Update(wire.RuleUpdate{Op: wire.UpdateDelete, Prefix: probe, Len: 32}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	action, ok := oracle.Lookup(probe)
	res, err = c.Lookup(probe)
	if err != nil || res.Matched != ok || (ok && res.Action != action) {
		t.Fatalf("lookup after delete = (%d,%v,%v), oracle (%d,%v)", res.Action, res.Matched, err, action, ok)
	}
	_ = sh
}

// TestWireSingleEngineMode exercises the coalescer and the update frames
// against one shard — the degenerate topology, a single engine behind the
// router — which must serve both like any other shard count.
func TestWireSingleEngineMode(t *testing.T) {
	srv, eng := buildTestServer(t, true, telemetry.NewRegistry())
	addr, _, _ := startWire(t, srv, 0, true)

	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	k := freeKey32(t, buildTestRuleSet(t), 0)
	res, err := c.Lookup(k)
	if err != nil {
		t.Fatal(err)
	}
	action, ok := eng.Lookup(k)
	if res.Matched != ok || (ok && res.Action != action) {
		t.Fatalf("wire (%d,%v) disagrees with engine (%d,%v)", res.Action, res.Matched, action, ok)
	}
	pending, err := c.Update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: k, Len: 32, Action: 4242})
	if err != nil || pending != 1 {
		t.Fatalf("update on one shard = (%d pending, %v), want (1, nil)", pending, err)
	}
	if res, err = c.Lookup(k); err != nil || !res.Matched || res.Action != 4242 {
		t.Fatalf("lookup after insert = (%+v, %v), want action 4242", res, err)
	}
}

// TestWireMalformedFramesDoNotKillServer: a client sending garbage gets an
// error/disconnect while other connections keep serving.
func TestWireMalformedFramesDoNotKillServer(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, 0, true)

	good, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

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

	if err := good.Ping(); err != nil {
		t.Fatalf("healthy connection broken by another client's garbage: %v", err)
	}
}

// TestWireDrainsInFlightFrames is the PR 10 shutdown regression test: a
// lookup parked in the coalescer's gather window when SIGTERM arrives must
// still be answered before the connection closes.
func TestWireDrainsInFlightFrames(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	// A long window guarantees the request is sitting in the gather state
	// when the signal lands; several warm-up lookups push the EWMA over the
	// light-load threshold so the window actually applies.
	addr, stop, errc := startWire(t, srv, 300*time.Millisecond, false)
	oracle := lpm.NewTrieMatcher(rs)

	c, err := wire.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	warm := make([]keys.Value, 64)
	for i := range warm {
		warm[i] = keys.FromUint64(uint64(i) * 997)
	}
	if _, err := c.Batch(warm); err != nil {
		t.Fatal(err)
	}
	// Push the EWMA up: concurrent singles force multi-lookup dispatches.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cc, err := wire.Dial(addr, time.Second)
			if err != nil {
				return
			}
			defer cc.Close()
			for i := 0; i < 8; i++ {
				cc.Lookup(keys.FromUint64(uint64(g*100 + i)))
			}
		}(g)
	}
	wg.Wait()

	k := keys.FromUint64(0x0a010203)
	id := c.ID()
	if err := c.Send(func(b []byte) []byte { return wire.AppendLookup(b, id, k) }); err != nil {
		t.Fatal(err)
	}
	stop <- syscall.SIGTERM // the lookup may still be parked in the window

	f, err := c.Recv()
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
	ws := NewWireServer(srv, wl, 0)
	stop := make(chan os.Signal, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- ServeUnits(stop, 5*time.Second, &HTTPUnit{Listener: hl, Handler: srv.Handler()}, ws)
	}()

	c, err := wire.Dial(wl.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
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
// connections hammer single lookups through the coalescer while a probe rule
// flaps through the delta buffer and background commits run. Every answer
// must equal the base oracle or the probe action — nothing else, ever.
func TestWireStressCoalescerVsCommits(t *testing.T) {
	srv, rs, sh := buildShardedServer(t)
	sh.StartAutoCommit(2*time.Millisecond, 1)
	addr, _, _ := startWire(t, srv, 5*time.Microsecond, true)
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
		cu, err := wire.Dial(addr, time.Second)
		if err != nil {
			return
		}
		defer cu.Close()
		for i := 0; ; i++ {
			select {
			case <-stopFlap:
				return
			default:
			}
			if i%2 == 0 {
				cu.Update(wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: probe, Len: 32, Action: probeAct})
			} else {
				cu.Update(wire.RuleUpdate{Op: wire.UpdateDelete, Prefix: probe, Len: 32})
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
			c, err := wire.Dial(addr, time.Second)
			if err != nil {
				t.Errorf("conn %d: %v", g, err)
				return
			}
			defer c.Close()
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
				res, err := c.Lookup(k)
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
		t.Fatalf("%d oracle mismatches under coalescer/commit stress", n)
	}
}
