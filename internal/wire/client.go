package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"neurolpm/internal/keys"
)

// Client is one persistent wire connection. The synchronous methods
// (Lookup, Batch, Update, Ping) keep one request in flight and are safe for
// concurrent use; high-rate callers that want pipelining (cmd/lpmload) use
// Send/Recv directly — ids are caller-assigned and responses are matched by
// id; the protocol does not promise request order.
type Client struct {
	conn net.Conn

	wmu  sync.Mutex
	bw   *bufio.Writer
	wbuf []byte

	rmu  sync.Mutex
	br   *bufio.Reader
	rbuf []byte
	res  []Result // scratch for Batch

	idmu   sync.Mutex
	nextID uint64

	// syncMu serializes the synchronous request/response methods so two
	// goroutines' round-trips cannot interleave on the shared connection.
	syncMu sync.Mutex
}

// Dial connects to a WireServer.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // latency over Nagle batching; we batch explicitly
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (tests use net.Pipe).
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		bw:   bufio.NewWriterSize(conn, 16<<10),
		br:   bufio.NewReaderSize(conn, 64<<10),
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// ID returns a fresh request id.
func (c *Client) ID() uint64 {
	c.idmu.Lock()
	c.nextID++
	id := c.nextID
	c.idmu.Unlock()
	return id
}

// Send appends one encoded request frame and flushes. enc appends the frame
// into the supplied buffer (use the Append* encoders).
func (c *Client) Send(enc func(b []byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = enc(c.wbuf[:0])
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return err
	}
	return c.bw.Flush()
}

// SendNoFlush appends one encoded request frame into the connection's
// buffered writer without flushing — pipelined senders flush once per burst.
func (c *Client) SendNoFlush(enc func(b []byte) []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = enc(c.wbuf[:0])
	_, err := c.bw.Write(c.wbuf)
	return err
}

// Flush flushes buffered request frames.
func (c *Client) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.bw.Flush()
}

// Recv reads the next response frame. The frame's payload aliases the
// client's read buffer and is valid until the next Recv.
func (c *Client) Recv() (Frame, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	f, buf, err := ReadFrame(c.br, c.rbuf)
	c.rbuf = buf
	return f, err
}

// roundTrip sends one request and waits for its response, which must carry
// the request's id (the synchronous methods never pipeline, so any other id
// is a protocol violation).
func (c *Client) roundTrip(id uint64, enc func(b []byte) []byte) (Frame, error) {
	c.syncMu.Lock()
	defer c.syncMu.Unlock()
	if err := c.Send(enc); err != nil {
		return Frame{}, err
	}
	f, err := c.Recv()
	if err != nil {
		return Frame{}, err
	}
	if f.ID != id {
		return Frame{}, fmt.Errorf("wire: response id %d for request %d", f.ID, id)
	}
	if f.Op == OpError {
		return Frame{}, f.Err()
	}
	return f, nil
}

// Lookup answers one key.
func (c *Client) Lookup(k keys.Value) (Result, error) {
	id := c.ID()
	f, err := c.roundTrip(id, func(b []byte) []byte { return AppendLookup(b, id, k) })
	if err != nil {
		return Result{}, err
	}
	if f.Op != OpResult {
		return Result{}, fmt.Errorf("wire: lookup answered with %s", f.Op)
	}
	return f.Result()
}

// Batch answers many keys positionally in one round-trip.
func (c *Client) Batch(ks []keys.Value) ([]Result, error) {
	id := c.ID()
	f, err := c.roundTrip(id, func(b []byte) []byte { return AppendBatch(b, id, ks) })
	if err != nil {
		return nil, err
	}
	if f.Op != OpBatchResult {
		return nil, fmt.Errorf("wire: batch answered with %s", f.Op)
	}
	c.res, err = f.BatchResults(c.res[:0])
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(c.res))
	copy(out, c.res)
	return out, nil
}

// Update applies one rule update, returning the server's pending-rule count.
func (c *Client) Update(u RuleUpdate) (pending uint32, err error) {
	id := c.ID()
	f, err := c.roundTrip(id, func(b []byte) []byte { return AppendUpdate(b, id, u) })
	if err != nil {
		return 0, err
	}
	if f.Op != OpUpdateResult {
		return 0, fmt.Errorf("wire: update answered with %s", f.Op)
	}
	return f.UpdatePending()
}

// Ping round-trips an empty frame (liveness / drain probe).
func (c *Client) Ping() error {
	id := c.ID()
	f, err := c.roundTrip(id, func(b []byte) []byte { return AppendPing(b, id) })
	if err != nil {
		return err
	}
	if f.Op != OpPong {
		return fmt.Errorf("wire: ping answered with %s", f.Op)
	}
	return nil
}
