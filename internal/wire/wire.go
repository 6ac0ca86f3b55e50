// Package wire is the binary serving protocol (DESIGN.md §17): a
// length-prefixed frame format over persistent TCP connections that replaces
// HTTP/JSON on the hot path. A frame is a 4-byte little-endian length
// followed by a fixed 12-byte header (magic, version, opcode, request id)
// and an opcode-specific payload of fixed-width fields — no text parsing, no
// reflection, no per-request allocation. Request ids let a server answer out
// of order: clients demultiplex responses by id, not by arrival order
// (serve.WireServer happens to answer each connection in request order).
//
// Every encoder appends into a caller-owned buffer and every decoder returns
// slices into the received frame, so a connection loop runs allocation-free
// at steady state (pinned by TestWireCodecZeroAllocs). Malformed input —
// truncated frames, bad magic, oversized lengths, short payloads — must
// error cleanly without panicking or over-reading (FuzzWireCodec).
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"neurolpm/internal/keys"
)

// Protocol constants. The magic renders as "NL" on the wire (little-endian
// uint16), so a stray HTTP client talking to a wire port fails the magic
// check on its first frame instead of being misparsed.
const (
	Magic   uint16 = 0x4C4E // "NL" in little-endian byte order
	Version uint8  = 1

	// headerLen is the fixed header after the length prefix:
	// magic(2) + version(1) + opcode(1) + id(8).
	headerLen = 12
	// lenPrefix is the length prefix itself.
	lenPrefix = 4
)

// MaxBatchKeys bounds one batch frame, matching the HTTP /batch limit.
const MaxBatchKeys = 65536

// MaxFrameLen is the largest legal value of the length prefix: a full batch
// of results (4-byte count + 9 bytes per result would be smaller; keys at 16
// bytes each dominate) plus the header. Anything larger is rejected before
// any payload byte is read, so a garbage length cannot force a huge read.
const MaxFrameLen = headerLen + 4 + 16*MaxBatchKeys

// Op is a frame opcode. Requests have the high bit clear; responses set it.
type Op uint8

const (
	OpLookup Op = 0x01 // payload: key (16 bytes)
	OpBatch  Op = 0x02 // payload: count u32, then count × 16-byte keys
	OpUpdate Op = 0x03 // payload: uop u8, plen u8, prefix 16 bytes, action u64
	OpPing   Op = 0x04 // payload: empty

	OpResult       Op = 0x81 // payload: action u64, flags u8 (bit0 = matched)
	OpBatchResult  Op = 0x82 // payload: count u32, then count × 9-byte results
	OpUpdateResult Op = 0x83 // payload: pending u32
	OpPong         Op = 0x84 // payload: empty
	OpError        Op = 0xFF // payload: code u8, UTF-8 message
)

// String names the opcode for diagnostics.
func (o Op) String() string {
	switch o {
	case OpLookup:
		return "lookup"
	case OpBatch:
		return "batch"
	case OpUpdate:
		return "update"
	case OpPing:
		return "ping"
	case OpResult:
		return "result"
	case OpBatchResult:
		return "batch-result"
	case OpUpdateResult:
		return "update-result"
	case OpPong:
		return "pong"
	case OpError:
		return "error"
	}
	return fmt.Sprintf("op(0x%02x)", uint8(o))
}

// Rule-update sub-opcodes (the uop byte of OpUpdate).
const (
	UpdateInsert uint8 = 0
	UpdateDelete uint8 = 1
	UpdateModify uint8 = 2
)

// Error codes carried by OpError frames.
const (
	ErrMalformed      uint8 = 1 // frame failed structural validation
	ErrBadRequest     uint8 = 2 // well-formed frame, unservable request
	ErrBackpressure   uint8 = 3 // delta buffer full; retry after a beat
	ErrNotImplemented uint8 = 4 // op unsupported in this server mode
)

// Result is one lookup answer as carried on the wire.
type Result struct {
	Action  uint64
	Matched bool
}

// RuleUpdate is the decoded OpUpdate payload.
type RuleUpdate struct {
	Op     uint8 // UpdateInsert | UpdateDelete | UpdateModify
	Prefix keys.Value
	Len    int
	Action uint64
}

// appendHeader appends the length prefix and fixed header for a frame whose
// payload is payloadLen bytes.
func appendHeader(b []byte, op Op, id uint64, payloadLen int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(headerLen+payloadLen))
	b = binary.LittleEndian.AppendUint16(b, Magic)
	b = append(b, Version, uint8(op))
	return binary.LittleEndian.AppendUint64(b, id)
}

func appendKey(b []byte, k keys.Value) []byte {
	b = binary.LittleEndian.AppendUint64(b, k.Lo)
	return binary.LittleEndian.AppendUint64(b, k.Hi)
}

func decodeKey(p []byte) keys.Value {
	return keys.Value{
		Lo: binary.LittleEndian.Uint64(p[0:8]),
		Hi: binary.LittleEndian.Uint64(p[8:16]),
	}
}

// AppendLookup appends one lookup request frame.
func AppendLookup(b []byte, id uint64, k keys.Value) []byte {
	b = appendHeader(b, OpLookup, id, 16)
	return appendKey(b, k)
}

// AppendBatch appends one batch request frame. len(ks) must be in
// [1, MaxBatchKeys]; out-of-range batches are the caller's bug and panic.
func AppendBatch(b []byte, id uint64, ks []keys.Value) []byte {
	if len(ks) < 1 || len(ks) > MaxBatchKeys {
		panic(fmt.Sprintf("wire: batch of %d keys outside [1,%d]", len(ks), MaxBatchKeys))
	}
	b = appendHeader(b, OpBatch, id, 4+16*len(ks))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(ks)))
	for _, k := range ks {
		b = appendKey(b, k)
	}
	return b
}

// AppendUpdate appends one rule-update request frame.
func AppendUpdate(b []byte, id uint64, u RuleUpdate) []byte {
	b = appendHeader(b, OpUpdate, id, 26)
	b = append(b, u.Op, uint8(u.Len))
	b = appendKey(b, u.Prefix)
	return binary.LittleEndian.AppendUint64(b, u.Action)
}

// AppendPing appends a ping frame.
func AppendPing(b []byte, id uint64) []byte { return appendHeader(b, OpPing, id, 0) }

// AppendResult appends one lookup response frame.
func AppendResult(b []byte, id uint64, action uint64, matched bool) []byte {
	b = appendHeader(b, OpResult, id, 9)
	b = binary.LittleEndian.AppendUint64(b, action)
	var f uint8
	if matched {
		f = 1
	}
	return append(b, f)
}

// AppendBatchResults appends one batch response frame.
func AppendBatchResults(b []byte, id uint64, res []Result) []byte {
	b = appendHeader(b, OpBatchResult, id, 4+9*len(res))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res)))
	for _, r := range res {
		b = binary.LittleEndian.AppendUint64(b, r.Action)
		var f uint8
		if r.Matched {
			f = 1
		}
		b = append(b, f)
	}
	return b
}

// AppendUpdateResult appends an update-accepted response carrying the
// server's pending (uncommitted) rule count.
func AppendUpdateResult(b []byte, id uint64, pending uint32) []byte {
	b = appendHeader(b, OpUpdateResult, id, 4)
	return binary.LittleEndian.AppendUint32(b, pending)
}

// AppendPong appends a pong frame.
func AppendPong(b []byte, id uint64) []byte { return appendHeader(b, OpPong, id, 0) }

// AppendError appends an error response frame.
func AppendError(b []byte, id uint64, code uint8, msg string) []byte {
	b = appendHeader(b, OpError, id, 1+len(msg))
	b = append(b, code)
	return append(b, msg...)
}

// Frame is one decoded frame. Payload aliases the read buffer and is valid
// only until the next ReadFrame on the same buffer.
type Frame struct {
	Op      Op
	ID      uint64
	Payload []byte
}

// ReadFrame reads one frame from r into buf (grown as needed) and parses the
// header. It returns the frame, the (possibly grown) buffer for reuse, and
// any error. Structural violations — bad magic, unknown version, a length
// outside [headerLen, MaxFrameLen] — return an error without reading past
// the declared frame, so one bad client frame cannot desynchronize or
// over-allocate the connection. io.EOF is returned untouched on a clean
// close before any byte of the next frame.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	if cap(buf) < lenPrefix {
		buf = make([]byte, 4096)
	}
	buf = buf[:cap(buf)]
	if _, err := io.ReadFull(r, buf[:lenPrefix]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("wire: truncated length prefix: %w", err)
		}
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(buf[:lenPrefix])
	if n < headerLen || n > MaxFrameLen {
		return Frame{}, buf, fmt.Errorf("wire: frame length %d outside [%d,%d]", n, headerLen, MaxFrameLen)
	}
	if int(n) > len(buf) {
		buf = make([]byte, int(n))
	}
	body := buf[:n]
	if got, err := io.ReadFull(r, body); err != nil {
		return Frame{}, buf, fmt.Errorf("wire: truncated frame (%d of %d bytes): %w", got, n, err)
	}
	if m := binary.LittleEndian.Uint16(body[0:2]); m != Magic {
		return Frame{}, buf, fmt.Errorf("wire: bad magic 0x%04x", m)
	}
	if v := body[2]; v != Version {
		return Frame{}, buf, fmt.Errorf("wire: unsupported version %d", v)
	}
	f := Frame{
		Op:      Op(body[3]),
		ID:      binary.LittleEndian.Uint64(body[4:12]),
		Payload: body[headerLen:],
	}
	return f, buf, nil
}

// Key decodes an OpLookup payload.
func (f Frame) Key() (keys.Value, error) {
	if len(f.Payload) != 16 {
		return keys.Value{}, fmt.Errorf("wire: lookup payload %d bytes, want 16", len(f.Payload))
	}
	return decodeKey(f.Payload), nil
}

// BatchKeys decodes an OpBatch payload, appending into dst.
func (f Frame) BatchKeys(dst []keys.Value) ([]keys.Value, error) {
	if len(f.Payload) < 4 {
		return dst, fmt.Errorf("wire: batch payload %d bytes, want ≥ 4", len(f.Payload))
	}
	n := binary.LittleEndian.Uint32(f.Payload[:4])
	if n < 1 || n > MaxBatchKeys {
		return dst, fmt.Errorf("wire: batch count %d outside [1,%d]", n, MaxBatchKeys)
	}
	if len(f.Payload) != 4+16*int(n) {
		return dst, fmt.Errorf("wire: batch payload %d bytes, want %d for %d keys", len(f.Payload), 4+16*int(n), n)
	}
	for i := 0; i < int(n); i++ {
		dst = append(dst, decodeKey(f.Payload[4+16*i:]))
	}
	return dst, nil
}

// Result decodes an OpResult payload.
func (f Frame) Result() (Result, error) {
	if len(f.Payload) != 9 {
		return Result{}, fmt.Errorf("wire: result payload %d bytes, want 9", len(f.Payload))
	}
	if f.Payload[8] > 1 {
		return Result{}, fmt.Errorf("wire: result flags 0x%02x, want 0 or 1", f.Payload[8])
	}
	return Result{
		Action:  binary.LittleEndian.Uint64(f.Payload[0:8]),
		Matched: f.Payload[8] == 1,
	}, nil
}

// BatchResults decodes an OpBatchResult payload, appending into dst.
func (f Frame) BatchResults(dst []Result) ([]Result, error) {
	if len(f.Payload) < 4 {
		return dst, fmt.Errorf("wire: batch-result payload %d bytes, want ≥ 4", len(f.Payload))
	}
	n := binary.LittleEndian.Uint32(f.Payload[:4])
	if n > MaxBatchKeys {
		return dst, fmt.Errorf("wire: batch-result count %d exceeds %d", n, MaxBatchKeys)
	}
	if len(f.Payload) != 4+9*int(n) {
		return dst, fmt.Errorf("wire: batch-result payload %d bytes, want %d for %d results", len(f.Payload), 4+9*int(n), n)
	}
	for i := 0; i < int(n); i++ {
		p := f.Payload[4+9*i:]
		if p[8] > 1 {
			return dst, fmt.Errorf("wire: batch-result %d flags 0x%02x, want 0 or 1", i, p[8])
		}
		dst = append(dst, Result{
			Action:  binary.LittleEndian.Uint64(p[0:8]),
			Matched: p[8] == 1,
		})
	}
	return dst, nil
}

// Update decodes an OpUpdate payload.
func (f Frame) Update() (RuleUpdate, error) {
	if len(f.Payload) != 26 {
		return RuleUpdate{}, fmt.Errorf("wire: update payload %d bytes, want 26", len(f.Payload))
	}
	u := RuleUpdate{
		Op:     f.Payload[0],
		Len:    int(f.Payload[1]),
		Prefix: decodeKey(f.Payload[2:18]),
		Action: binary.LittleEndian.Uint64(f.Payload[18:26]),
	}
	if u.Op > UpdateModify {
		return RuleUpdate{}, fmt.Errorf("wire: unknown update op %d", u.Op)
	}
	if u.Len > 128 {
		return RuleUpdate{}, fmt.Errorf("wire: update prefix length %d exceeds 128", u.Len)
	}
	return u, nil
}

// UpdatePending decodes an OpUpdateResult payload.
func (f Frame) UpdatePending() (uint32, error) {
	if len(f.Payload) != 4 {
		return 0, fmt.Errorf("wire: update-result payload %d bytes, want 4", len(f.Payload))
	}
	return binary.LittleEndian.Uint32(f.Payload), nil
}

// Err decodes an OpError payload into a Go error.
func (f Frame) Err() error {
	if len(f.Payload) < 1 {
		return fmt.Errorf("wire: empty error payload")
	}
	return &RemoteError{Code: f.Payload[0], Msg: string(f.Payload[1:])}
}

// RemoteError is a server-reported error decoded from an OpError frame.
type RemoteError struct {
	Code uint8
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("wire: server error %d: %s", e.Code, e.Msg)
}
