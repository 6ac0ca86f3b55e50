package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/wire"
)

const (
	// latencyLimit is the latency limit of within_limit_share.
	latencyLimit = time.Millisecond
	// burstDepth is how many lookups wire_burst pipelines per flush.
	burstDepth = 32
	// drainWait bounds the wait for replies after the send window.
	drainWait = 5 * time.Second
	// updateID marks a request id as an update's; the rest is its index.
	updateID = uint64(1) << 63
)

// sock is a TCP socket in blocking mode, read and written with plain system
// calls on the calling goroutine's thread. A net.Conn would park the
// goroutine in the runtime's poller instead, and whether the poller's thread,
// an idle one or a freshly woken one then picks the reply up is decided anew
// every few hundred milliseconds: through a net.Conn wire_pingpong's window
// medians alternated between 10.5 and 16 us inside one run. A blocked thread
// the kernel wakes directly has one path.
type sock struct{ fd int }

func dialSock(addr string) (*sock, error) {
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, fmt.Errorf("socket: %w", err)
	}
	sa := &syscall.SockaddrInet4{Port: ta.Port}
	copy(sa.Addr[:], ta.IP.To4())
	if err := syscall.Connect(fd, sa); err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("connect %s: %w", addr, err)
	}
	// A server that stops answering fails the read instead of hanging the run.
	tv := syscall.NsecToTimeval(int64(drainWait))
	err = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	if err == nil {
		err = syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv)
	}
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("setsockopt: %w", err)
	}
	return &sock{fd: fd}, nil
}

func (s *sock) Read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(s.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err != nil:
			return 0, fmt.Errorf("read: %w", err)
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (s *sock) Write(p []byte) (int, error) {
	done := 0
	for done < len(p) {
		n, err := syscall.Write(s.fd, p[done:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return done, fmt.Errorf("write: %w", err)
		}
		done += n
	}
	return done, nil
}

func (s *sock) Close() error { return syscall.Close(s.fd) }

// quiet collects garbage now and keeps the collector off until the returned
// function is called. Everything a measured span appends to is allocated
// before it starts, so the heap does not grow meanwhile; left on, a cycle set
// off by those allocations marked this process's gigabyte of inputs on the
// CPU a closed loop shares with the server, and once took the whole of a
// round to let the senders start.
func quiet() (restore func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// conn is one wire connection driven with the internal/wire codec directly:
// frames are appended to wbuf and leave in one write per flush.
type conn struct {
	c    *sock
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
}

func dialWire(addr string) (*conn, error) {
	c, err := dialSock(addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) flush() error {
	_, err := c.c.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

func (c *conn) recv() (wire.Frame, error) {
	f, buf, err := wire.ReadFrame(c.br, c.rbuf)
	c.rbuf = buf
	return f, err
}

// wireRun is one serving workload's traffic against a running server.
type wireRun struct {
	in    *inputs
	ch    *churn // wire_churn only
	srv   *server
	echo  *echo // nil = no reference slices
	seed  int64
	warm  time.Duration
	span  time.Duration // measured time after warm
	trace bool          // traced run: also scrape /metrics and thread status

	start time.Time

	// Outcome. samples holds every lookup of the run, warm-up included.
	samples    []sample
	updates    []sample
	late       []int64 // open loops: send − due of lookups due in the measured span
	errs       atomic.Int64
	mismatches atomic.Int64
	torn       atomic.Int64
	usage      [2]procUsage          // the server's, at the measured span's start and end
	echoUsage  [2]procUsage          // the echo child's
	metrics    [2]map[string]float64 // traced runs
}

func (r *wireRun) now() int64 { return int64(time.Since(r.start)) }

// key returns request seq's key, with its trace index (-1 for a lookup that
// targets a flap site on purpose).
func (r *wireRun) key(seq int) (keys.Value, int) {
	if r.ch != nil && seq%siteEvery == siteEvery-1 {
		return r.ch.sites[(seq/siteEvery)%len(r.ch.sites)], -1
	}
	idx := seq % len(r.in.trace)
	return r.in.trace[idx], idx
}

// check verifies one reply against the oracle answer of the request it
// names. A flap-site key is checked against its legal-answer set instead,
// and a miss there is a torn read, not a failure.
func (r *wireRun) check(seq int, res wire.Result) bool {
	k, idx := r.key(seq)
	if r.ch != nil {
		if site, ok := r.ch.siteIdx[k]; ok {
			if !r.ch.legal(site, res) {
				r.torn.Add(1)
			}
			return true
		}
	}
	if res != r.in.want[idx] {
		r.mismatches.Add(1)
		return false
	}
	return true
}

// reply handles one response frame to a lookup and returns whether it was
// the right answer.
func (r *wireRun) reply(f wire.Frame) bool {
	if f.Op != wire.OpResult {
		r.errs.Add(1) // an error frame, or a frame that answers no lookup
		return false
	}
	res, err := f.Result()
	if err != nil {
		r.errs.Add(1)
		return false
	}
	return r.check(int(f.ID), res)
}

// sampleUsage reads the child's /proc (and, traced, /metrics) at the
// measured span's two ends. It runs beside the load so no sender stalls.
func (r *wireRun) sampleUsage(wg *sync.WaitGroup, fail func(error)) {
	defer wg.Done()
	for i, at := range []time.Duration{r.warm, r.warm + r.span} {
		time.Sleep(time.Until(r.start.Add(at)))
		u, err := readUsage(r.srv.pid(), r.trace)
		if err != nil {
			fail(fmt.Errorf("read child usage: %w", err))
			return
		}
		r.usage[i] = u
		if r.echo != nil {
			if r.echoUsage[i], err = readUsage(r.echo.pid(), false); err != nil {
				fail(fmt.Errorf("read echo child usage: %w", err))
				return
			}
		}
		if r.trace {
			if r.metrics[i], err = r.srv.scrape(); err != nil {
				fail(fmt.Errorf("scrape /metrics: %w", err))
				return
			}
		}
	}
}

// onReference reports whether time t (ns since the run's start) falls in a
// reference slice: every second one, when the run has a reference.
func (r *wireRun) onReference(t int64) bool {
	return r.echo != nil && (t/int64(slice))%2 == 1
}

// echoed checks a frame the echo child sent back: it must be request seq's
// own lookup frame.
func (r *wireRun) echoed(f wire.Frame) bool {
	k, err := f.Key()
	want, _ := r.key(int(f.ID))
	if f.Op != wire.OpLookup || err != nil || k != want {
		r.errs.Add(1)
		return false
	}
	return true
}

// closed runs nConns closed-loop clients, each keeping depth lookups
// outstanding: send depth, flush once, read depth replies, repeat. One
// goroutine per client, with a connection to the server and one to the echo
// child; which of the two a burst goes to is decided by the slice it starts
// in. Latency runs from the flush to each reply.
func (r *wireRun) closed(nConns, depth int) error {
	type client struct{ srv, echo *conn }
	clients := make([]client, nConns)
	for i := range clients {
		c, err := dialWire(r.srv.wireAddr)
		if err != nil {
			return err
		}
		defer c.c.Close()
		clients[i].srv = c
		if r.echo == nil {
			continue
		}
		if c, err = dialWire(r.echo.addr); err != nil {
			return err
		}
		defer c.c.Close()
		clients[i].echo = c
	}
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	// Sized so a log never grows (and copies) mid-run: a million lookups a
	// second is four times what one connection carried in the sizing runs.
	perConn := make([][]sample, nConns)
	for i := range perConn {
		perConn[i] = make([]sample, 0, int((r.warm+r.span).Seconds()*1e6))
	}
	defer quiet()()
	r.start = time.Now()
	end := int64(r.warm + r.span)
	var wg sync.WaitGroup
	wg.Add(1)
	go r.sampleUsage(&wg, fail)
	for ci, cl := range clients {
		wg.Add(1)
		go func(ci int, cl client) {
			defer wg.Done()
			log := perConn[ci]
			defer func() { perConn[ci] = log }()
			base := make([]int, depth) // log index of each outstanding request
			for n := 0; ; n++ {
				t0 := r.now()
				if t0 >= end {
					return
				}
				ref, c := r.onReference(t0), cl.srv
				if ref {
					c = cl.echo
				}
				for j := 0; j < depth; j++ {
					seq := (n*depth+j)*nConns + ci
					k, _ := r.key(seq)
					c.wbuf = wire.AppendLookup(c.wbuf, uint64(seq), k)
				}
				t0 = r.now()
				if err := c.flush(); err != nil {
					fail(err)
					return
				}
				for j := 0; j < depth; j++ {
					base[j] = len(log)
					log = append(log, sample{due: t0, ref: ref})
				}
				for j := 0; j < depth; j++ {
					f, err := c.recv()
					if err != nil {
						fail(err)
						return
					}
					// Replies to one burst may arrive in any order.
					slot := (int(f.ID)-ci)/nConns - n*depth
					if slot < 0 || slot >= depth || log[base[slot]].done != 0 {
						r.errs.Add(1)
						continue
					}
					log[base[slot]].done = r.now()
					if ref {
						log[base[slot]].ok = r.echoed(f)
					} else {
						log[base[slot]].ok = r.reply(f)
					}
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	for _, log := range perConn {
		r.samples = append(r.samples, log...)
	}
	return firstErr
}

// pollConn is a wire connection in non-blocking mode, for the open loop's
// single thread: out holds request bytes the kernel has not taken yet, in
// holds reply bytes not yet decoded.
type pollConn struct {
	s    *sock
	out  []byte
	in   []byte
	off  int // in[:off] is decoded already
	rd   bytes.Reader
	rbuf []byte
	owed int64 // requests queued on this connection and not yet answered
}

// pump hands the kernel what it will take of out and reads what has arrived;
// neither blocks.
func (c *pollConn) pump() error {
	for len(c.out) > 0 {
		n, err := syscall.Write(c.s.fd, c.out)
		if err == syscall.EAGAIN {
			break // the server is not reading; the rest waits its turn
		}
		if err != nil && err != syscall.EINTR {
			return fmt.Errorf("write: %w", err)
		}
		if n > 0 {
			c.out = c.out[:copy(c.out, c.out[n:])]
		}
	}
	c.in = c.in[:copy(c.in, c.in[c.off:])]
	c.off = 0
	for {
		if cap(c.in)-len(c.in) < 4096 {
			c.in = append(make([]byte, 0, 2*cap(c.in)+64<<10), c.in...)
		}
		n, err := syscall.Read(c.s.fd, c.in[len(c.in):cap(c.in)])
		switch {
		case err == syscall.EAGAIN:
			return nil
		case err == syscall.EINTR:
			continue
		case err != nil:
			return fmt.Errorf("read: %w", err)
		case n == 0:
			return io.EOF
		}
		c.in = c.in[:len(c.in)+n]
	}
}

// next decodes the next complete frame of in with the wire codec; ok is false
// when the bytes of one have not all arrived.
func (c *pollConn) next() (f wire.Frame, ok bool, err error) {
	in := c.in[c.off:]
	if len(in) < 4 {
		return f, false, nil
	}
	n := 4 + int(binary.LittleEndian.Uint32(in))
	if n <= wire.MaxFrameLen+4 && len(in) < n {
		return f, false, nil
	}
	if n > len(in) {
		n = len(in) // an illegal length: ReadFrame rejects it from the prefix alone
	}
	c.rd.Reset(in[:n])
	f, c.rbuf, err = wire.ReadFrame(&c.rd, c.rbuf)
	c.off += n
	return f, err == nil, err
}

// open runs the open loop: Poisson lookups at rate per second over two
// connections, each arrival sent to the server or, when it is due in a
// reference slice, to the echo child over two connections of its own. Under
// churn there is no reference; lookups take the first connection and the
// update stream the second. The server applies updates inline on the
// connection's reader, so lookups that shared the updates' connection would
// wait behind each one for as long as a commit holds the shard: their
// latencies form a second population, and p50 or p99 lands on the cliff
// between the two (run-to-run spread of 60 % in the sizing runs). Kept apart,
// the lookups measure what churn does to bystanders, and serve.update_ack_*
// what it does to updates. An update is sent when it is due and the one
// before it is acknowledged, so the stream never queues behind itself.
//
// The schedule is fixed by the seed before the first send. One goroutine on
// one thread does everything and never sleeps, yields or blocks: each turn of
// its loop queues what has come due, hands each connection's bytes to the
// kernel in one write, and reads and stamps whatever replies have arrived. A
// short time.Sleep on this kind of box takes about a millisecond, and
// receivers of their own (goroutines in the runtime's poller, or threads
// blocked in read) are woken when the Go or the kernel scheduler gets round
// to it: with the first a reply waited up to 10 ms for the runtime's
// background poll, with the second the pacer lost its CPU for up to 30 ms.
func (r *wireRun) open(rate float64) error {
	const nConns = 2
	total := r.warm + r.span
	lookupConns := nConns
	if r.ch != nil {
		lookupConns = 1
	}
	due := poisson(rand.New(rand.NewSource(r.seed+4)), rate, total)
	r.samples = make([]sample, len(due))
	sent := make([]int64, len(due))
	var upd []int64
	if r.ch != nil {
		for _, u := range r.ch.updates {
			if u.At >= total {
				break
			}
			upd = append(upd, int64(u.At))
		}
		r.updates = make([]sample, len(upd))
	}

	addrs := []string{r.srv.wireAddr, r.srv.wireAddr}
	if r.echo != nil {
		addrs = append(addrs, r.echo.addr, r.echo.addr)
	}
	conns := make([]*pollConn, len(addrs))
	for i, addr := range addrs {
		s, err := dialSock(addr)
		if err != nil {
			return err
		}
		defer s.Close()
		if err := syscall.SetNonblock(s.fd, true); err != nil {
			return fmt.Errorf("set non-blocking: %w", err)
		}
		conns[i] = &pollConn{s: s}
	}
	var firstErr error
	var errMu sync.Mutex
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	defer quiet()()
	r.start = time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go r.sampleUsage(&wg, fail)

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	li, ui := 0, 0
	updating := false // an update is out and not yet acknowledged
	giveUp := int64(total + drainWait)
loop:
	for {
		now := r.now()
		for ; li < len(due) && due[li] <= now; li++ {
			ref := r.onReference(due[li])
			c := conns[li%lookupConns]
			if ref {
				c = conns[nConns+li%nConns]
			}
			k, _ := r.key(li)
			c.out = wire.AppendLookup(c.out, uint64(li), k)
			c.owed++
			r.samples[li] = sample{due: due[li], ref: ref}
			sent[li] = now
		}
		if !updating && ui < len(upd) && upd[ui] <= now && now < int64(total) {
			u := r.ch.updates[ui]
			c := conns[nConns-1]
			c.out = wire.AppendUpdate(c.out, updateID|uint64(ui), wire.RuleUpdate{
				Op: uint8(u.Op), Prefix: u.Rule.Prefix, Len: u.Rule.Len, Action: u.Rule.Action,
			})
			c.owed++
			r.updates[ui].due = upd[ui]
			updating = true
			ui++
		}
		var owed int64
		for _, c := range conns {
			if err := c.pump(); err != nil {
				fail(err)
				break loop
			}
			for {
				f, ok, err := c.next()
				if err != nil {
					fail(err)
					break loop
				}
				if !ok {
					break
				}
				c.owed--
				at := r.now()
				if f.ID&updateID != 0 {
					i := int(f.ID &^ updateID)
					if i >= ui || r.updates[i].done != 0 {
						r.errs.Add(1) // answers nothing that was asked
						continue
					}
					r.updates[i].done = at
					r.updates[i].ok = f.Op == wire.OpUpdateResult
					updating = false
					continue
				}
				i := int(f.ID)
				if i >= li || r.samples[i].done != 0 {
					r.errs.Add(1)
					continue
				}
				r.samples[i].done = at
				if r.samples[i].ref {
					r.samples[i].ok = r.echoed(f)
				} else {
					r.samples[i].ok = r.reply(f)
				}
			}
			owed += c.owed
		}
		if now >= int64(total) && li == len(due) && (owed <= 0 || now > giveUp) {
			break // whatever is still owed stays unanswered
		}
	}
	wg.Wait()
	r.updates = r.updates[:ui]
	for i := 0; i < li; i++ {
		if due[i] >= int64(r.warm) {
			r.late = append(r.late, sent[i]-due[i])
		}
	}
	return firstErr
}
