// Package wire is the binary serving protocol (DESIGN.md §17): a
// length-prefixed frame format over persistent TCP connections that carries
// every lookup and rule update a daemon serves. A frame is a 4-byte little-endian length
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
	"unicode/utf8"

	"neurolpm/internal/keys"
)

// Protocol constants. The magic renders as "NL" on the wire (little-endian
// uint16), so a stray HTTP client talking to a wire port fails the magic
// check on its first frame instead of being misparsed.
const (
	magic   uint16 = 0x4C4E // "NL" in little-endian byte order
	version uint8  = 1

	// headerLen is the fixed header after the length prefix:
	// magic(2) + version(1) + opcode(1) + id(8).
	headerLen = 12
	// lenPrefix is the length prefix itself.
	lenPrefix = 4
)

// maxErrMsg bounds an error frame's message: AppendError cuts a longer one.
const maxErrMsg = 243

// MaxFrameLen is the largest legal value of the length prefix: an error frame
// whose message is maxErrMsg bytes, the longest frame the protocol has (an
// update request is 38). Anything larger is rejected before any payload byte
// is read, so a garbage length cannot force a read.
const MaxFrameLen = headerLen + 1 + maxErrMsg

// ResultLen is a lookup answer's size on the wire, length prefix included.
const ResultLen = lenPrefix + headerLen + 9

// Op is a frame opcode. Requests have the high bit clear; responses set it.
type Op uint8

const (
	OpLookup Op = 0x01 // payload: key (16 bytes)
	OpUpdate Op = 0x03 // payload: uop u8, plen u8, prefix 16 bytes, action u64
	OpPing   Op = 0x04 // payload: empty

	OpResult       Op = 0x81 // payload: action u64, flags u8 (bit0 = matched)
	OpUpdateResult Op = 0x83 // payload: empty (the update is in the engine)
	opPong         Op = 0x84 // payload: empty
	opError        Op = 0xFF // payload: code u8, UTF-8 message
	// Opcodes 0x02 and 0x82 stay unassigned: they were a batch of keys and
	// its results, and older clients may still send 0x02. Lookups pipeline.
)

// String names the opcode for diagnostics.
func (o Op) String() string {
	switch o {
	case OpLookup:
		return "lookup"
	case OpUpdate:
		return "update"
	case OpPing:
		return "ping"
	case OpResult:
		return "result"
	case OpUpdateResult:
		return "update-result"
	case opPong:
		return "pong"
	case opError:
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

// Error codes carried by error frames.
const (
	ErrMalformed  uint8 = 1 // frame failed structural validation
	ErrBadRequest uint8 = 2 // well-formed frame, unservable request
	// Code 3 stays unassigned: older clients read it as "retry later".
	// Code 4 stays unassigned: older clients read it as "op unsupported".
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
	b = binary.LittleEndian.AppendUint16(b, magic)
	b = append(b, version, uint8(op))
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

// AppendUpdate appends one rule-update request frame.
func AppendUpdate(b []byte, id uint64, u RuleUpdate) []byte {
	b = appendHeader(b, OpUpdate, id, 26)
	b = append(b, u.Op, uint8(u.Len))
	b = appendKey(b, u.Prefix)
	return binary.LittleEndian.AppendUint64(b, u.Action)
}

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

// AppendUpdateResult appends an update acknowledgement: an empty frame, sent
// once the update is in the engine.
func AppendUpdateResult(b []byte, id uint64) []byte {
	return appendHeader(b, OpUpdateResult, id, 0)
}

// AppendPong appends a pong frame.
func AppendPong(b []byte, id uint64) []byte { return appendHeader(b, opPong, id, 0) }

// AppendError appends an error response frame. A message longer than
// maxErrMsg bytes is cut on a rune boundary, so the frame fits MaxFrameLen.
func AppendError(b []byte, id uint64, code uint8, msg string) []byte {
	if len(msg) > maxErrMsg {
		n := maxErrMsg
		for n > 0 && !utf8.RuneStart(msg[n]) {
			n--
		}
		msg = msg[:n]
	}
	b = appendHeader(b, opError, id, 1+len(msg))
	b = append(b, code)
	return append(b, msg...)
}

// Frame is one decoded frame. Payload aliases the bytes it was parsed from:
// Parse's input, or ReadFrame's buffer until the next ReadFrame on it.
type Frame struct {
	Op      Op
	ID      uint64
	Payload []byte
}

// Parse splits the frame at the start of b and checks its length prefix,
// magic and version. n is the frame's size on the wire, 0 on an error; n == 0
// with a nil error means b does not yet hold a whole frame. A length outside
// [headerLen, MaxFrameLen] is an error as soon as b holds the prefix.
func Parse(b []byte) (f Frame, n int, err error) {
	if len(b) < lenPrefix {
		return f, 0, nil
	}
	l := binary.LittleEndian.Uint32(b)
	if l < headerLen || l > MaxFrameLen {
		return f, 0, fmt.Errorf("wire: frame length %d outside [%d,%d]", l, headerLen, MaxFrameLen)
	}
	if n = lenPrefix + int(l); len(b) < n {
		return f, 0, nil
	}
	if m := binary.LittleEndian.Uint16(b[4:]); m != magic {
		return f, 0, fmt.Errorf("wire: bad magic 0x%04x", m)
	}
	if b[6] != version {
		return f, 0, fmt.Errorf("wire: unsupported version %d", b[6])
	}
	return Frame{Op: Op(b[7]), ID: binary.LittleEndian.Uint64(b[8:]), Payload: b[lenPrefix+headerLen : n]}, n, nil
}

// ReadFrame reads one frame from r into buf and checks it with Parse,
// returning the frame, the buffer for reuse, and any error. A buf smaller
// than lenPrefix+MaxFrameLen is replaced by one of that size, which holds
// every legal frame, so a caller that passes back the returned buffer
// allocates once. A length Parse rejects is an error before any body byte is
// read. io.EOF is returned untouched on a clean close before any byte of the
// next frame.
func ReadFrame(r io.Reader, buf []byte) (Frame, []byte, error) {
	if cap(buf) < lenPrefix+MaxFrameLen {
		buf = make([]byte, lenPrefix+MaxFrameLen)
	}
	buf = buf[:cap(buf)]
	if _, err := io.ReadFull(r, buf[:lenPrefix]); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("wire: truncated length prefix: %w", err)
		}
		return Frame{}, buf, err
	}
	if _, _, err := Parse(buf[:lenPrefix]); err != nil {
		return Frame{}, buf, err
	}
	body := buf[lenPrefix : lenPrefix+binary.LittleEndian.Uint32(buf)]
	if got, err := io.ReadFull(r, body); err != nil {
		return Frame{}, buf, fmt.Errorf("wire: truncated frame (%d of %d bytes): %w", got, len(body), err)
	}
	f, _, err := Parse(buf[:lenPrefix+len(body)])
	return f, buf, err
}

// Key decodes an OpLookup payload.
func (f Frame) Key() (keys.Value, error) {
	if len(f.Payload) != 16 {
		return keys.Value{}, fmt.Errorf("wire: lookup payload %d bytes, want 16", len(f.Payload))
	}
	return decodeKey(f.Payload), nil
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
