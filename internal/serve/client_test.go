package serve

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"neurolpm/internal/keys"
	"neurolpm/internal/wire"
)

// replyWait bounds how long a test client waits for its replies: a reply the
// server never sends fails the test in seconds instead of hanging it until the
// test binary's timeout.
const replyWait = 10 * time.Second

// client is the tests' wire connection. lookup, update and ping keep one
// request in flight; a test that pipelines writes frames with send and reads
// the answers with recv, matching them by id. One goroutine uses a client.
type client struct {
	conn   net.Conn
	br     *bufio.Reader
	buf    []byte
	nextID uint64
}

// dialClient connects to the wire server at addr, its reads bounded by
// replyWait.
func dialClient(addr string) (*client, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	conn.SetReadDeadline(time.Now().Add(replyWait))
	return newClient(conn), nil
}

func newClient(conn net.Conn) *client {
	return &client{conn: conn, br: bufio.NewReader(conn)}
}

// dialWire serves srv on a WireServer for the test's lifetime and returns a
// client connected to it.
func dialWire(t *testing.T, srv *Server) *client {
	t.Helper()
	addr, _, _ := startWire(t, srv, true)
	return dialWireAt(t, addr)
}

// dialWireAt returns a client connected to the wire server at addr for the
// test's lifetime.
func dialWireAt(t *testing.T, addr string) *client {
	t.Helper()
	c, err := dialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.conn.Close() })
	return c
}

// id returns a fresh request id.
func (c *client) id() uint64 {
	c.nextID++
	return c.nextID
}

// send writes encoded frames.
func (c *client) send(frames []byte) error {
	_, err := c.conn.Write(frames)
	return err
}

// recv reads the next answer. Its payload is valid until the next recv.
func (c *client) recv() (wire.Frame, error) {
	f, buf, err := wire.ReadFrame(c.br, c.buf)
	c.buf = buf
	return f, err
}

// roundTrip sends the frame enc appends for a fresh id and reads its answer,
// which must carry that id and be op or an error frame.
func (c *client) roundTrip(op wire.Op, enc func(b []byte, id uint64) []byte) (wire.Frame, error) {
	id := c.id()
	if err := c.send(enc(nil, id)); err != nil {
		return wire.Frame{}, err
	}
	f, err := c.recv()
	switch {
	case err != nil:
		return wire.Frame{}, err
	case f.ID != id:
		return wire.Frame{}, fmt.Errorf("answer id %d for request %d", f.ID, id)
	case f.Op == opError:
		return wire.Frame{}, frameError(f)
	case f.Op != op:
		return wire.Frame{}, fmt.Errorf("answered with %s, want %s", f.Op, op)
	}
	return f, nil
}

// lookup answers one key.
func (c *client) lookup(k keys.Value) (wire.Result, error) {
	f, err := c.roundTrip(wire.OpResult, func(b []byte, id uint64) []byte { return wire.AppendLookup(b, id, k) })
	if err != nil {
		return wire.Result{}, err
	}
	return f.Result()
}

// update applies one rule update; nil means the server acknowledged it.
func (c *client) update(u wire.RuleUpdate) error {
	_, err := c.roundTrip(wire.OpUpdateResult, func(b []byte, id uint64) []byte { return wire.AppendUpdate(b, id, u) })
	return err
}

// ping round-trips an empty frame.
func (c *client) ping() error {
	_, err := c.roundTrip(opPong, appendPing)
	return err
}

// appendPing appends a ping frame: a lookup frame's header with the ping
// opcode and no payload.
func appendPing(b []byte, id uint64) []byte {
	return append(b, reframe(wire.AppendLookup(nil, id, keys.Value{}), wire.OpPing, nil)...)
}

// The answer opcodes no shipped code names, read off the frames the wire
// package encodes.
var (
	opPong  = opOf(wire.AppendPong(nil, 0))
	opError = opOf(wire.AppendError(nil, 0, 0, ""))
)

func opOf(frame []byte) wire.Op {
	f, _, _ := wire.Parse(frame)
	return f.Op
}

// remoteError is the error an error frame carries.
type remoteError struct {
	code uint8
	msg  string
}

func (e *remoteError) Error() string { return fmt.Sprintf("server error %d: %s", e.code, e.msg) }

// frameError decodes an error frame's payload.
func frameError(f wire.Frame) error {
	if len(f.Payload) < 1 {
		return fmt.Errorf("empty error payload")
	}
	return &remoteError{code: f.Payload[0], msg: string(f.Payload[1:])}
}
