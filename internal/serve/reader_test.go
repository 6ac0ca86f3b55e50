package serve

import (
	"bufio"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/wire"
)

// TestWireFramesSplitAnywhere sends one pipelined stream, longer than the
// reader's 64 KiB buffer, in uneven chunks with a pause after each, so frames
// straddle reads and the buffer's refill. Lookups, an update, a ping and a
// lookup with a bad payload are mixed in; every answer must match the trie
// oracle and come back in request order.
func TestWireFramesSplitAnywhere(t *testing.T) {
	srv, rs, _ := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, true)
	oracle := lpm.NewTrieMatcher(rs)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// want[i] checks the answer to request id i+1.
	rng := rand.New(rand.NewSource(5))
	probe := keys.FromUint64(0x7f000001)
	var stream []byte
	var want []func(t *testing.T, f wire.Frame)
	lookup := func(k keys.Value, action uint64, matched bool) {
		id := uint64(len(want) + 1)
		stream = wire.AppendLookup(stream, id, k)
		want = append(want, func(t *testing.T, f wire.Frame) { wantResult(t, f, id, action, matched) })
	}
	other := func(frame []byte, op wire.Op) {
		id := uint64(len(want) + 1)
		binary.LittleEndian.PutUint64(frame[8:], id)
		stream = append(stream, frame...)
		want = append(want, func(t *testing.T, f wire.Frame) {
			if f.Op != op || f.ID != id {
				t.Fatalf("answer %s id=%d, want %s id=%d", f.Op, f.ID, op, id)
			}
		})
	}
	for i := 0; len(stream) < 80<<10; i++ {
		switch i {
		case 700:
			other(wire.AppendUpdate(nil, 0, wire.RuleUpdate{Op: wire.UpdateInsert, Prefix: probe, Len: 32, Action: 4242}), wire.OpUpdateResult)
			lookup(probe, 4242, true)
		case 1300:
			other(appendPing(nil, 0), opPong)
		case 1900:
			short := wire.AppendLookup(nil, 0, probe)
			short = short[:len(short)-1] // a 15-byte key
			binary.LittleEndian.PutUint32(short, uint32(len(short)-4))
			other(short, opError)
		default:
			k := keys.FromUint64(rng.Uint64() & (1<<32 - 1))
			if k == probe {
				continue
			}
			action, ok := oracle.Lookup(k)
			lookup(k, action, ok)
		}
	}

	go func() {
		chunks := []int{1, 3, 17, 4095, 29, 61000, 7}
		for off, i := 0, 0; off < len(stream); i++ {
			end := min(off+chunks[i%len(chunks)], len(stream))
			if _, err := conn.Write(stream[off:end]); err != nil {
				return // the reader below reports what is missing
			}
			off = end
			time.Sleep(200 * time.Microsecond)
		}
	}()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	var buf []byte
	for i, check := range want {
		f, b, err := wire.ReadFrame(br, buf)
		buf = b
		if err != nil {
			t.Fatalf("answer %d of %d: %v", i+1, len(want), err)
		}
		check(t, f)
	}
}

// burst pipelines the encoded lookups req on conn and reads their answers
// into resp, which must be their size on the wire.
func burst(t testing.TB, conn net.Conn, req, resp []byte) {
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, resp); err != nil {
		t.Fatal(err)
	}
}

// lookupBurst encodes n pipelined lookups and returns them with a buffer
// that holds their answers.
func lookupBurst(n int) (req, resp []byte) {
	for i := 0; i < n; i++ {
		req = wire.AppendLookup(req, uint64(i+1), keys.FromUint64(uint64(i)*2654435761&(1<<32-1)))
	}
	return req, make([]byte, n*wire.ResultLen)
}

// TestWireReaderZeroAllocs pins the reader at zero allocations a lookup in
// steady state: 32-lookup bursts, and 700-lookup bursts whose third dispatch
// does not fit the writer's free space and flushes before it encodes.
func TestWireReaderZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the zero-alloc pin runs in the non-race suite")
	}
	srv, _, _ := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, true)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, n := range []int{32, 700} {
		req, resp := lookupBurst(n)
		burst(t, conn, req, resp) // the server's gather scratch grows once
		if avg := testing.AllocsPerRun(100, func() { burst(t, conn, req, resp) }); avg/float64(n) > 0 {
			t.Errorf("%d-lookup bursts allocate %.2f a burst, want 0", n, avg)
		}
	}
}

// TestWireFlushesAndReadsPerBurst: N pipelined bursts take exactly N flushes
// and at most 2N reads, and the two counters say so.
func TestWireFlushesAndReadsPerBurst(t *testing.T) {
	srv, _, _ := buildShardedServer(t)
	addr, _, _ := startWire(t, srv, true)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, resp := lookupBurst(32)
	burst(t, conn, req, resp)
	reads := func() uint64 { return counter(t, srv.reg, "neurolpm_wire_reads_total") }
	flushes := func() uint64 { return counter(t, srv.reg, "neurolpm_wire_flushes_total") }
	r0, f0 := reads(), flushes()
	const n = 50
	for i := 0; i < n; i++ {
		burst(t, conn, req, resp)
	}
	if got := flushes() - f0; got != n {
		t.Errorf("%d bursts took %d flushes, want %d", n, got, n)
	}
	if got := reads() - r0; got < n || got > 2*n {
		t.Errorf("%d bursts took %d reads, want %d..%d", n, got, n, 2*n)
	}
}
