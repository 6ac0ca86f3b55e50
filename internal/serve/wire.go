package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"neurolpm/internal/core"
	"neurolpm/internal/keys"
	"neurolpm/internal/lpm"
	"neurolpm/internal/shard"
	"neurolpm/internal/telemetry"
	"neurolpm/internal/wire"
)

// Coalescer defaults (DESIGN.md §17). The window is the most a queued lookup
// waits for company; the batch cap matches the point where the batch plane's
// per-key amortization has flattened out.
const (
	DefaultCoalesceWindow = 20 * time.Microsecond
	maxCoalesceBatch      = 256

	// The adaptive window interpolates between the IMMEDIATE and GATHER
	// states on the EWMA of dispatched batch sizes: at or below
	// coalesceLightLoad the window is 0 (a lone client never waits), at
	// coalesceFullLoad and above the full configured window applies.
	coalesceLightLoad = 1.25
	coalesceFullLoad  = 8.0
	// coalesceAlpha is the EWMA smoothing factor per dispatch.
	coalesceAlpha = 0.2

	// wireDrainGrace is how long readers keep decoding after a shutdown
	// signal: a frame the client already sent (in the kernel buffer, not yet
	// decoded) is still read and answered instead of being reset. Readers
	// exit at this deadline; the dispatcher then drains what they queued.
	wireDrainGrace = 100 * time.Millisecond
)

// WireServer serves the binary protocol (internal/wire) over persistent TCP
// connections, answering through the same Server the HTTP mux serves. It is
// a serve.Unit: run it under ServeUnits next to the HTTP listener and one
// SIGINT/SIGTERM drains both.
//
// Single-key lookups from all connections flow through one adaptive
// coalescer: a dispatcher goroutine gathers requests that arrive within the
// effective window into one batch-plane call (Server.batchStack) and
// demultiplexes the answers back by request id. The effective window adapts
// to load — see DESIGN.md §17 for the IMMEDIATE↔GATHER state machine.
// OpBatch frames are already batched by the client and execute directly on
// the connection's reader goroutine.
type WireServer struct {
	s *Server
	l net.Listener

	co *coalescer

	mu       sync.Mutex
	conns    map[*wireConn]struct{}
	draining bool

	readerWg sync.WaitGroup
	stopc    chan struct{} // closed by Shutdown: stop accepting, kick readers
	drainc   chan struct{} // closed when all readers have exited
	donec    chan struct{} // closed when the dispatcher has drained and exited
	stopOnce sync.Once

	cConns      *telemetry.Counter
	cFrames     *telemetry.Counter
	cLookups    *telemetry.Counter
	cBatchKeys  *telemetry.Counter
	cUpdates    *telemetry.Counter
	cErrors     *telemetry.Counter
	cDispatches *telemetry.Counter
	hBatchSize  *telemetry.Histogram
}

// NewWireServer wraps s on the listener. window ≤ 0 selects
// DefaultCoalesceWindow; the dispatcher starts immediately so Shutdown is
// safe even if it races Serve.
func NewWireServer(s *Server, l net.Listener, window time.Duration) *WireServer {
	if window <= 0 {
		window = DefaultCoalesceWindow
	}
	ws := &WireServer{
		s:      s,
		l:      l,
		conns:  make(map[*wireConn]struct{}),
		stopc:  make(chan struct{}),
		drainc: make(chan struct{}),
		donec:  make(chan struct{}),
		co: &coalescer{
			window: window,
			wake:   make(chan struct{}, 1),
		},
	}
	reg := s.reg
	ws.cConns = reg.Counter("neurolpm_wire_conns_total", "Wire connections accepted")
	ws.cFrames = reg.Counter("neurolpm_wire_frames_total", "Wire request frames decoded")
	ws.cLookups = reg.Counter("neurolpm_wire_lookups_total", "Wire single-key lookups answered")
	ws.cBatchKeys = reg.Counter("neurolpm_wire_batch_keys_total", "Keys answered through wire client-side batch frames")
	ws.cUpdates = reg.Counter("neurolpm_wire_updates_total", "Wire rule updates applied")
	ws.cErrors = reg.Counter("neurolpm_wire_errors_total", "Wire error frames sent")
	ws.cDispatches = reg.Counter("neurolpm_wire_coalesce_dispatches_total", "Coalescer dispatches (one batch-plane call each)")
	ws.hBatchSize = reg.Histogram("neurolpm_wire_coalesce_batch_size", "Lookups gathered per coalescer dispatch")
	go ws.dispatcher()
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
		ws.mu.Lock()
		if ws.draining {
			ws.mu.Unlock()
			conn.Close()
			continue
		}
		ws.conns[c] = struct{}{}
		ws.mu.Unlock()
		ws.cConns.Inc()
		ws.readerWg.Add(1)
		go c.readLoop()
	}
}

// Shutdown drains the wire plane: stop accepting, kick blocked readers (a
// frame already received — including one parked in the coalescer's gather
// window — is still answered), wait for the dispatcher to empty its queue,
// then flush and close every connection. Bounded by ctx's deadline.
func (ws *WireServer) Shutdown(ctx context.Context) error {
	ws.stopOnce.Do(func() {
		close(ws.stopc)
		ws.l.Close()
		ws.mu.Lock()
		ws.draining = true
		deadline := time.Now().Add(wireDrainGrace)
		for c := range ws.conns {
			// Bound every reader: frames already in flight are decoded and
			// answered within the grace window, then the deadline error
			// ends the read loop.
			c.conn.SetReadDeadline(deadline)
		}
		ws.mu.Unlock()
		go func() {
			ws.readerWg.Wait()
			close(ws.drainc)
		}()
	})
	var err error
	select {
	case <-ws.donec:
	case <-ctx.Done():
		err = ctx.Err()
	}
	ws.mu.Lock()
	for c := range ws.conns {
		c.closeConn()
		delete(ws.conns, c)
	}
	ws.mu.Unlock()
	return err
}

// Addr returns the listener address (tests bind :0).
func (ws *WireServer) Addr() net.Addr { return ws.l.Addr() }

// wireConn is one accepted connection: a reader goroutine decoding frames
// and a mutex-guarded write side shared with the coalescer's dispatcher.
type wireConn struct {
	ws   *WireServer
	conn net.Conn

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte // encode scratch, reused under wmu

	// Reader-owned scratch (no locking: only readLoop touches these).
	rbuf  []byte
	kbuf  []keys.Value
	resb  []shard.Result
	wresb []wire.Result

	// dispatchSeq marks the last dispatcher round that wrote to this conn;
	// dispatcher-owned, used to flush each touched conn exactly once.
	dispatchSeq uint64
}

// send encodes one response frame under the write lock and flushes it.
func (c *wireConn) send(enc func(b []byte) []byte) {
	c.wmu.Lock()
	c.wbuf = enc(c.wbuf[:0])
	c.bw.Write(c.wbuf)
	c.bw.Flush()
	c.wmu.Unlock()
}

func (c *wireConn) sendErr(id uint64, code uint8, msg string) {
	c.ws.cErrors.Inc()
	c.send(func(b []byte) []byte { return wire.AppendError(b, id, code, msg) })
}

// closeConn closes the underlying connection once (reader exit and Shutdown
// can both reach it).
func (c *wireConn) closeConn() { c.conn.Close() }

// readLoop decodes request frames until the connection errors or drain kicks
// it. Protocol violations that survive framing (bad payloads) answer an
// error frame and keep the connection; framing violations close it.
func (c *wireConn) readLoop() {
	defer func() {
		// During drain the conn must outlive the reader: queued lookups are
		// still being answered. Shutdown closes it after the dispatcher
		// drains. On a normal client disconnect, close and unregister here.
		c.ws.mu.Lock()
		draining := c.ws.draining
		if !draining {
			delete(c.ws.conns, c)
		}
		c.ws.mu.Unlock()
		if !draining {
			c.closeConn()
		}
		c.ws.readerWg.Done()
	}()
	for {
		f, buf, err := wire.ReadFrame(c.conn, c.rbuf)
		c.rbuf = buf
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				// Framing violation: tell the client once, then drop it —
				// the stream cannot be resynchronized.
				c.sendErr(0, wire.ErrMalformed, err.Error())
			}
			return
		}
		c.ws.cFrames.Inc()
		switch f.Op {
		case wire.OpPing:
			c.send(func(b []byte) []byte { return wire.AppendPong(b, f.ID) })
		case wire.OpLookup:
			k, err := f.Key()
			if err != nil {
				c.sendErr(f.ID, wire.ErrMalformed, err.Error())
				continue
			}
			c.ws.co.submit(pendingLookup{c: c, id: f.ID, k: k})
		case wire.OpBatch:
			c.handleBatch(f)
		case wire.OpUpdate:
			c.handleUpdate(f)
		default:
			c.sendErr(f.ID, wire.ErrBadRequest, fmt.Sprintf("unexpected %s frame", f.Op))
		}
	}
}

// handleBatch answers a client-side batch on the reader goroutine — the
// client already amortized its round-trip, so it skips the coalescer.
func (c *wireConn) handleBatch(f wire.Frame) {
	var err error
	c.kbuf, err = f.BatchKeys(c.kbuf[:0])
	if err != nil {
		c.sendErr(f.ID, wire.ErrMalformed, err.Error())
		return
	}
	c.resb = c.ws.s.batchStack(c.kbuf, c.resb[:0])
	c.ws.cBatchKeys.Add(uint64(len(c.kbuf)))
	c.wresb = c.wresb[:0]
	for _, r := range c.resb {
		c.wresb = append(c.wresb, wire.Result{Action: r.Action, Matched: r.Matched})
	}
	c.wmu.Lock()
	c.wbuf = wire.AppendBatchResults(c.wbuf[:0], f.ID, c.wresb)
	c.bw.Write(c.wbuf)
	c.bw.Flush()
	c.wmu.Unlock()
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
		if errors.Is(err, core.ErrDeltaFull) {
			c.sendErr(f.ID, wire.ErrBackpressure, err.Error())
			return
		}
		c.sendErr(f.ID, wire.ErrBadRequest, err.Error())
		return
	}
	c.ws.cUpdates.Inc()
	pending := uint32(s.sh.PendingInserts())
	c.send(func(b []byte) []byte { return wire.AppendUpdateResult(b, f.ID, pending) })
}

// pendingLookup is one queued single-key request awaiting a dispatch.
type pendingLookup struct {
	c  *wireConn
	id uint64
	k  keys.Value
}

// coalescer gathers single-key lookups from all connections. Submitters
// append under mu and nudge the dispatcher through wake; the dispatcher owns
// the EWMA and the effective-window computation.
type coalescer struct {
	mu      sync.Mutex
	pending []pendingLookup

	wake   chan struct{}
	window time.Duration // configured maximum gather window
	ewma   float64       // dispatcher-owned load estimate (batch size)
}

func (co *coalescer) submit(p pendingLookup) {
	co.mu.Lock()
	co.pending = append(co.pending, p)
	co.mu.Unlock()
	select {
	case co.wake <- struct{}{}:
	default:
	}
}

// take moves up to maxCoalesceBatch queued lookups into batch, re-arming the
// wake channel if a backlog remains.
func (co *coalescer) take(batch []pendingLookup) []pendingLookup {
	co.mu.Lock()
	n := len(co.pending)
	if n > maxCoalesceBatch {
		n = maxCoalesceBatch
	}
	batch = append(batch, co.pending[:n]...)
	rest := copy(co.pending, co.pending[n:])
	co.pending = co.pending[:rest]
	backlog := rest > 0
	co.mu.Unlock()
	if backlog {
		select {
		case co.wake <- struct{}{}:
		default:
		}
	}
	return batch
}

// effectiveWindow maps the load estimate onto [0, window]: IMMEDIATE at or
// below coalesceLightLoad, GATHER with the full window at coalesceFullLoad.
func (co *coalescer) effectiveWindow() time.Duration {
	frac := (co.ewma - coalesceLightLoad) / (coalesceFullLoad - coalesceLightLoad)
	if frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	return time.Duration(float64(co.window) * frac)
}

// dispatcher is the coalescer's single consumer: woken by the first queued
// lookup, it optionally lingers for the adaptive window, takes the gathered
// batch through one batch-plane call, and demultiplexes the answers back to
// their connections by request id.
func (ws *WireServer) dispatcher() {
	co := ws.co
	var (
		batch []pendingLookup
		ks    []keys.Value
		res   []shard.Result
		seq   uint64
		conns []*wireConn // touched this round, flushed once each
	)
	drainMode := false
	for {
		if !drainMode {
			select {
			case <-co.wake:
			case <-ws.drainc:
				drainMode = true
			}
		}
		if w := co.effectiveWindow(); w > 0 && !drainMode {
			time.Sleep(w)
		}
		batch = co.take(batch[:0])
		if len(batch) == 0 {
			if drainMode {
				close(ws.donec)
				return
			}
			continue
		}
		co.ewma = (1-coalesceAlpha)*co.ewma + coalesceAlpha*float64(len(batch))
		ws.cDispatches.Inc()
		ws.cLookups.Add(uint64(len(batch)))
		ws.hBatchSize.ObserveInt(len(batch))

		ks = ks[:0]
		for _, p := range batch {
			ks = append(ks, p.k)
		}
		res = ws.s.batchStack(ks, res[:0])

		// Demux: append each answer into its connection's buffered writer,
		// flushing every touched connection exactly once per round.
		seq++
		conns = conns[:0]
		for i, p := range batch {
			c := p.c
			c.wmu.Lock()
			c.wbuf = wire.AppendResult(c.wbuf[:0], p.id, res[i].Action, res[i].Matched)
			c.bw.Write(c.wbuf)
			c.wmu.Unlock()
			if c.dispatchSeq != seq {
				c.dispatchSeq = seq
				conns = append(conns, c)
			}
		}
		for _, c := range conns {
			c.wmu.Lock()
			c.bw.Flush()
			c.wmu.Unlock()
		}
	}
}

// isTimeout reports whether err is a deadline kick (the drain path).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
