package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/wire"
)

const (
	// maxCoalesceBatch caps the lookups one batch-plane call answers: the
	// point where the batch plane's per-key amortization has flattened out.
	maxCoalesceBatch = 256

	// wireDrainGrace is how long connections keep serving after a shutdown
	// signal: a frame the client already sent (in the kernel buffer, not yet
	// decoded) is still read and answered instead of being reset.
	wireDrainGrace = 100 * time.Millisecond
)

// WireServer serves the binary protocol (internal/wire) over persistent TCP
// connections: the data path for every lookup and rule update of the Server
// it wraps. It is
// a serve.Unit: run it under ServeUnits next to the HTTP listener and one
// SIGINT/SIGTERM drains both.
//
// Every request executes on its connection's reader goroutine (DESIGN.md
// §17): it decodes each complete frame one read delivered, answers consecutive
// single-key lookups with one batch-plane call (LookupBatchInto) and flushes
// once per drained read. A client that pipelines gets batching; a lone request
// is a batch of one with no hand-off. Connections share nothing but the
// Server, so a client that stops reading stalls only itself.
type WireServer struct {
	s *Server
	l net.Listener

	mu       sync.Mutex
	conns    map[*wireConn]struct{}
	draining bool

	readerWg sync.WaitGroup
	stopc    chan struct{} // closed by Shutdown: stop accepting, bound the readers
	drainc   chan struct{} // closed when all readers have exited
	stopOnce sync.Once

	cConns      *telemetry.Counter
	cFrames     *telemetry.Counter
	cLookups    *telemetry.Counter
	cUpdates    *telemetry.Counter
	cErrors     *telemetry.Counter
	cDispatches *telemetry.Counter
	hBatchSize  *telemetry.Histogram
}

// NewWireServer wraps s on the listener.
func NewWireServer(s *Server, l net.Listener) *WireServer {
	ws := &WireServer{
		s:      s,
		l:      l,
		conns:  make(map[*wireConn]struct{}),
		stopc:  make(chan struct{}),
		drainc: make(chan struct{}),
	}
	reg := s.reg
	ws.cConns = reg.Counter("neurolpm_wire_conns_total", "Wire connections accepted")
	ws.cFrames = reg.Counter("neurolpm_wire_frames_total", "Wire request frames decoded")
	ws.cLookups = reg.Counter("neurolpm_wire_lookups_total", "Wire single-key lookups answered")
	ws.cUpdates = reg.Counter("neurolpm_wire_updates_total", "Wire rule updates applied")
	ws.cErrors = reg.Counter("neurolpm_wire_errors_total", "Wire error frames sent")
	ws.cDispatches = reg.Counter("neurolpm_wire_coalesce_dispatches_total", "Batch-plane calls answering single-key lookups gathered from one connection's read")
	ws.hBatchSize = reg.Histogram("neurolpm_wire_coalesce_batch_size", "Single-key lookups answered per batch-plane call")
	return ws
}

// Serve accepts wire connections until Shutdown closes the listener.
func (ws *WireServer) Serve() error {
	for {
		conn, err := ws.l.Accept()
		if err != nil {
			select {
			case <-ws.stopc:
				return nil
			default:
				return err
			}
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		c := &wireConn{ws: ws, conn: conn, br: bufio.NewReaderSize(conn, 64<<10), bw: bufio.NewWriterSize(conn, 16<<10)}
		ws.mu.Lock()
		if ws.draining {
			ws.mu.Unlock()
			conn.Close()
			continue
		}
		ws.conns[c] = struct{}{}
		ws.readerWg.Add(1) // under mu: ordered before Shutdown's Wait
		ws.mu.Unlock()
		ws.cConns.Inc()
		go c.readLoop()
	}
}

// Shutdown drains the wire plane in one phase: stop accepting, bound every
// connection's reads with wireDrainGrace and its writes with twice that, and
// wait for the readers — each answers and flushes everything it read before
// it exits and closes its connection.
// Connections still open when ctx expires are closed here.
func (ws *WireServer) Shutdown(ctx context.Context) error {
	ws.stopOnce.Do(func() {
		close(ws.stopc)
		ws.l.Close()
		ws.mu.Lock()
		ws.draining = true
		now := time.Now()
		for c := range ws.conns {
			// A reader parked in Read is kicked at the grace, one parked in
			// Flush towards a client that stopped reading a grace later: a
			// frame read in the grace's last instant is answered after it, and
			// under one shared deadline that flush would already have expired.
			c.conn.SetReadDeadline(now.Add(wireDrainGrace))
			c.conn.SetWriteDeadline(now.Add(2 * wireDrainGrace))
		}
		ws.mu.Unlock()
		go func() {
			ws.readerWg.Wait()
			close(ws.drainc)
		}()
	})
	select {
	case <-ws.drainc:
		return nil
	case <-ctx.Done():
	}
	ws.mu.Lock()
	for c := range ws.conns {
		c.conn.Close()
	}
	ws.mu.Unlock()
	return ctx.Err()
}

// wireConn is one accepted connection. Its reader goroutine is the only one
// that touches it after Serve starts it (Shutdown only sets deadlines and
// closes the socket), so nothing here is locked.
type wireConn struct {
	ws   *WireServer
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer // Write errors are sticky; readLoop acts on them at Flush

	rbuf []byte // frame scratch for wire.ReadFrame: one wire.MaxFrameLen buffer
	wbuf []byte // encode scratch

	// Lookups gathered since the last answerLookups, in request order:
	// ids[i] asked for lks[i], and resb holds their answers. None passes
	// maxCoalesceBatch entries, so with rbuf they bound what a connection
	// keeps, whatever its client sends.
	ids  []uint64
	lks  []keys.Value
	resb []shard.Result
}

func (c *wireConn) sendErr(id uint64, code uint8, msg string) {
	c.ws.cErrors.Inc()
	c.wbuf = wire.AppendError(c.wbuf[:0], id, code, msg)
	c.bw.Write(c.wbuf)
}

// frameBuffered reports whether the next frame is complete in the read
// buffer — length prefix and body — so that decoding it cannot block. An
// out-of-range prefix needs no case of its own: whichever way this answers,
// wire.ReadFrame rejects it straight after the prefix without reading a body.
func (c *wireConn) frameBuffered() bool {
	if c.br.Buffered() < 4 {
		return false
	}
	p, _ := c.br.Peek(4)
	return uint64(c.br.Buffered()-4) >= uint64(binary.LittleEndian.Uint32(p))
}

// readLoop decodes and answers request frames until the connection errors or
// drain kicks it. Protocol violations that survive framing (bad payloads)
// answer an error frame and keep the connection; framing violations close it.
func (c *wireConn) readLoop() {
	defer func() {
		c.ws.mu.Lock()
		delete(c.ws.conns, c)
		c.ws.mu.Unlock()
		c.conn.Close()
		c.ws.readerWg.Done()
	}()
	for {
		// Flush rule: the next ReadFrame may block only when nothing is owed.
		// A partial frame in the buffer counts as nothing buffered — finished
		// answers are never held behind bytes that have not arrived.
		if !c.frameBuffered() {
			c.answerLookups()
			if c.bw.Flush() != nil {
				return // the client is gone, or stalled past drain's deadline
			}
		}
		f, buf, err := wire.ReadFrame(c.br, c.rbuf)
		c.rbuf = buf
		if err != nil {
			// What was gathered before a bad frame is still answered.
			c.answerLookups()
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				// Not a close or drain's deadline but a framing violation: tell
				// the client once, then drop it — the stream cannot be
				// resynchronized.
				c.sendErr(0, wire.ErrMalformed, err.Error())
			}
			c.bw.Flush()
			return
		}
		c.ws.cFrames.Inc()
		// Order rule: responses leave in request order, and an update sits
		// between the lookups around it, so anything but a lookup first
		// answers the lookups gathered before it.
		if f.Op != wire.OpLookup {
			c.answerLookups()
		}
		switch f.Op {
		case wire.OpLookup:
			k, err := f.Key()
			if err != nil {
				c.answerLookups()
				c.sendErr(f.ID, wire.ErrMalformed, err.Error())
				continue
			}
			c.ids = append(c.ids, f.ID)
			c.lks = append(c.lks, k)
			if len(c.lks) == maxCoalesceBatch {
				c.answerLookups()
			}
		case wire.OpPing:
			c.wbuf = wire.AppendPong(c.wbuf[:0], f.ID)
			c.bw.Write(c.wbuf)
		case wire.OpUpdate:
			c.handleUpdate(f)
		default:
			c.sendErr(f.ID, wire.ErrBadRequest, fmt.Sprintf("unexpected %s frame", f.Op))
		}
	}
}

// answerLookups answers the gathered single-key lookups with one batch-plane
// call and encodes the results, in request order, into the write buffer.
func (c *wireConn) answerLookups() {
	if len(c.lks) == 0 {
		return
	}
	ws := c.ws
	ws.cDispatches.Inc()
	ws.cLookups.Add(uint64(len(c.lks)))
	ws.hBatchSize.ObserveInt(len(c.lks))
	c.resb = ws.s.sh.LookupBatchInto(c.lks, c.resb[:0])
	c.wbuf = c.wbuf[:0]
	for i, r := range c.resb {
		c.wbuf = wire.AppendResult(c.wbuf, c.ids[i], r.Action, r.Matched)
	}
	c.bw.Write(c.wbuf)
	c.ids, c.lks = c.ids[:0], c.lks[:0]
}

func (c *wireConn) handleUpdate(f wire.Frame) {
	u, err := f.Update()
	if err != nil {
		c.sendErr(f.ID, wire.ErrMalformed, err.Error())
		return
	}
	s := c.ws.s
	switch u.Op {
	case wire.UpdateInsert:
		err = s.sh.Insert(lpm.Rule{Prefix: u.Prefix, Len: u.Len, Action: u.Action})
	case wire.UpdateDelete:
		err = s.sh.Delete(u.Prefix, u.Len)
	case wire.UpdateModify:
		err = s.sh.ModifyAction(u.Prefix, u.Len, u.Action)
	}
	if err != nil {
		c.sendErr(f.ID, wire.ErrBadRequest, err.Error())
		return
	}
	c.ws.cUpdates.Inc()
	c.wbuf = wire.AppendUpdateResult(c.wbuf[:0], f.ID)
	c.bw.Write(c.wbuf)
}
