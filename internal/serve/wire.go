package serve

import (
	"bufio"
	"cmp"
	"context"
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
// it wraps. It is a serve.Unit: run it under ServeUnits next to the HTTP
// listener and one SIGINT/SIGTERM drains both.
//
// Every request executes on its connection's reader goroutine (DESIGN.md
// §17): it parses each whole frame one read delivered where it landed in the
// read buffer, answers consecutive single-key lookups with one batch-plane
// call (LookupBatchInto) and flushes once per drained read. A client that
// pipelines gets batching; a lone request is a batch of one with no hand-off.
// Connections share nothing but the Server, so a client that stops reading
// stalls only itself.
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
	cReads      *telemetry.Counter
	cFlushes    *telemetry.Counter
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
	ws.cReads = reg.Counter("neurolpm_wire_reads_total", "Reads on wire connections that returned bytes")
	ws.cFlushes = reg.Counter("neurolpm_wire_flushes_total", "Flushes of wire answers that wrote bytes")
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
		c := &wireConn{ws: ws, conn: conn, bw: bufio.NewWriterSize(conn, 16<<10)}
		c.br = bufio.NewReaderSize(c, 64<<10)
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
	ws    *WireServer
	conn  net.Conn
	br    *bufio.Reader // reads through c.Read; frames are parsed in its buffer
	bw    *bufio.Writer // Write errors are sticky; readLoop acts on them at Flush
	reads uint64        // socket reads that returned bytes, not yet booked

	// Lookups gathered since the last answerLookups, in request order: ids[i]
	// asked for lks[i], resb holds their answers. With the two buffers, these
	// maxCoalesceBatch entries bound what a connection keeps.
	ids  []uint64
	lks  []keys.Value
	resb []shard.Result
}

// Read is the socket read under br, counted without an atomic.
func (c *wireConn) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	if n > 0 {
		c.reads++
	}
	return n, err
}

// flush writes out the answers. One that writes bytes books itself and the
// reads before it; readLoop books the reads left when it exits.
func (c *wireConn) flush() error {
	if c.bw.Buffered() > 0 {
		c.ws.cFlushes.Inc()
		c.ws.cReads.Add(c.reads)
		c.reads = 0
	}
	return c.bw.Flush()
}

// room returns the write buffer's free space to append n bytes of answers
// into, flushing first if they would not fit, so append never grows a slice.
func (c *wireConn) room(n int) []byte {
	if c.bw.Available() < n {
		c.flush()
	}
	return c.bw.AvailableBuffer()
}

func (c *wireConn) sendErr(id uint64, code uint8, msg string) {
	c.ws.cErrors.Inc()
	c.bw.Write(wire.AppendError(c.room(4+wire.MaxFrameLen), id, code, msg))
}

// readLoop answers request frames until the connection errors or drain kicks
// it. Protocol violations that survive framing (bad payloads) answer an error
// frame and keep the connection; framing violations close it.
func (c *wireConn) readLoop() {
	defer func() {
		c.ws.mu.Lock()
		delete(c.ws.conns, c)
		c.ws.mu.Unlock()
		c.conn.Close()
		c.ws.cReads.Add(c.reads)
		c.ws.readerWg.Done()
	}()
	var err error // the last read's, acted on once the bytes before it are answered
	for {
		buf, _ := c.br.Peek(c.br.Buffered()) // payloads alias it until Discard
		used, frames := 0, 0
		for {
			f, n, perr := wire.Parse(buf[used:])
			if n == 0 {
				err = cmp.Or(perr, err) // a framing error outranks the read's
				break
			}
			used, frames = used+n, frames+1
			c.handle(f)
		}
		c.br.Discard(used)
		if frames > 0 {
			c.ws.cFrames.Add(uint64(frames))
		}
		c.answerLookups()
		if err == io.EOF && used < len(buf) {
			err = fmt.Errorf("wire: truncated frame: %w", io.ErrUnexpectedEOF)
		}
		if err != nil && err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
			// Not a close or drain's deadline but a framing violation: tell the
			// client once, then drop it — the stream cannot be resynchronized.
			c.sendErr(0, wire.ErrMalformed, err.Error())
		}
		if c.flush() != nil || err != nil {
			return // the client is gone, stalled past drain's deadline, or dropped
		}
		// Flush rule: block for one more read only now, when nothing is owed.
		// A partial frame in the buffer counts as nothing buffered — finished
		// answers are never held behind bytes that have not arrived.
		_, err = c.br.Peek(c.br.Buffered() + 1)
	}
}

// handle answers one frame, or gathers it if it is a lookup.
func (c *wireConn) handle(f wire.Frame) {
	// Order rule: responses leave in request order, and an update sits
	// between the lookups around it, so anything but a lookup first answers
	// the lookups gathered before it.
	if f.Op != wire.OpLookup {
		c.answerLookups()
	}
	switch f.Op {
	case wire.OpLookup:
		k, err := f.Key()
		if err != nil {
			c.answerLookups()
			c.sendErr(f.ID, wire.ErrMalformed, err.Error())
			return
		}
		c.ids = append(c.ids, f.ID)
		c.lks = append(c.lks, k)
		if len(c.lks) == maxCoalesceBatch {
			c.answerLookups()
		}
	case wire.OpPing:
		c.bw.Write(wire.AppendPong(c.room(4+wire.MaxFrameLen), f.ID))
	case wire.OpUpdate:
		c.handleUpdate(f)
	default:
		c.sendErr(f.ID, wire.ErrBadRequest, fmt.Sprintf("unexpected %s frame", f.Op))
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
	b := c.room(len(c.resb) * wire.ResultLen)
	for i, r := range c.resb {
		b = wire.AppendResult(b, c.ids[i], r.Action, r.Matched)
	}
	c.bw.Write(b)
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
	c.bw.Write(wire.AppendUpdateResult(c.room(4+wire.MaxFrameLen), f.ID))
}
