package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"unicode/utf8"

	"neurolpm/internal/keys"
)

// readOne decodes a single encoded frame, failing the test on any error.
func readOne(t *testing.T, b []byte) Frame {
	t.Helper()
	f, _, err := ReadFrame(bytes.NewReader(b), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return f
}

func TestLookupRoundTrip(t *testing.T) {
	k := keys.FromParts(0xdeadbeefcafe, 0x0123456789abcdef)
	f := readOne(t, AppendLookup(nil, 42, k))
	if f.Op != OpLookup || f.ID != 42 {
		t.Fatalf("header %v/%d, want lookup/42", f.Op, f.ID)
	}
	got, err := f.Key()
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Fatalf("key %v, want %v", got, k)
	}
}

// TestCanonicalFrameLengths holds the two frames of one lookup to the byte
// counts DESIGN.md §17's format table gives — length prefix + header +
// payload, for any id, key or answer, a result being ResultLen — so a query
// costs 57 bytes on the wire.
// That is the numerator the benchmark's wire.bytes_per_lookup reports.
func TestCanonicalFrameLengths(t *testing.T) {
	wide := keys.FromParts(^uint64(0), ^uint64(0))
	frames := []struct {
		name  string
		frame []byte
		want  int
	}{
		{"lookup", AppendLookup(nil, 1, keys.FromUint64(1)), 4 + 12 + 16},
		{"lookup, 128-bit key, max id", AppendLookup(nil, ^uint64(0), wide), 4 + 12 + 16},
		{"result", AppendResult(nil, 1, 42, true), 4 + 12 + 9},
		{"result, no match, max action", AppendResult(nil, ^uint64(0), ^uint64(0), false), ResultLen},
	}
	for _, f := range frames {
		if len(f.frame) != f.want {
			t.Errorf("%s frame is %d bytes, want %d", f.name, len(f.frame), f.want)
		}
		if got := int(binary.LittleEndian.Uint32(f.frame)); got != f.want-4 {
			t.Errorf("%s length prefix says %d, want %d", f.name, got, f.want-4)
		}
	}
	if perQuery := len(frames[0].frame) + len(frames[2].frame); perQuery != 57 {
		t.Errorf("one lookup and its result are %d bytes, want 57", perQuery)
	}
}

func TestResultRoundTrip(t *testing.T) {
	f := readOne(t, AppendResult(nil, 9, 12345, true))
	r, err := f.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != 12345 || !r.Matched {
		t.Fatalf("result %+v", r)
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	u := RuleUpdate{Op: UpdateModify, Prefix: keys.FromUint64(0x0a000000), Len: 24, Action: 99}
	f := readOne(t, AppendUpdate(nil, 3, u))
	got, err := f.Update()
	if err != nil {
		t.Fatal(err)
	}
	if got != u {
		t.Fatalf("update %+v, want %+v", got, u)
	}
}

func TestPingPongAndError(t *testing.T) {
	if f := readOne(t, appendPing(nil, 1)); f.Op != OpPing || len(f.Payload) != 0 {
		t.Fatalf("ping frame %+v", f)
	}
	if f := readOne(t, AppendPong(nil, 1)); f.Op != opPong {
		t.Fatalf("pong frame %+v", f)
	}
	if f := readOne(t, AppendUpdateResult(nil, 2)); f.Op != OpUpdateResult || f.ID != 2 || len(f.Payload) != 0 {
		t.Fatalf("update-result frame %+v", f)
	}
	f := readOne(t, AppendError(nil, 5, ErrBadRequest, "rebuild failed"))
	if code, msg, ok := remoteError(f); !ok || code != ErrBadRequest || msg != "rebuild failed" {
		t.Fatalf("error frame %+v", f)
	}
}

// TestStreamOfFramesSharesBuffer: ReadFrame allocates its buffer once, at
// the longest frame's size on the wire (lenPrefix+MaxFrameLen), and every
// later frame — the longest included — reuses it.
func TestStreamOfFramesSharesBuffer(t *testing.T) {
	var b []byte
	b = AppendLookup(b, 1, keys.FromUint64(10))
	b = appendPing(b, 2)
	b = AppendError(b, 3, ErrBadRequest, strings.Repeat("x", 2*MaxFrameLen))
	b = AppendLookup(b, 4, keys.FromUint64(30))
	r := bytes.NewReader(b)
	var buf []byte
	var first *byte
	var err error
	var f Frame
	for want := uint64(1); want <= 4; want++ {
		f, buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if f.ID != want {
			t.Fatalf("id %d, want %d", f.ID, want)
		}
		if first == nil {
			first = &buf[:1][0]
		}
		if cap(buf) != lenPrefix+MaxFrameLen || &buf[:1][0] != first {
			t.Fatalf("frame %d: buffer of cap %d at a new address, want the first one of cap %d", want, cap(buf), lenPrefix+MaxFrameLen)
		}
	}
	if _, _, err = ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("after stream: %v, want io.EOF", err)
	}
}

// TestErrorFrameFitsMaxFrameLen: AppendError cuts a long message on a rune
// boundary, so the longest error frame is exactly MaxFrameLen and reads back.
func TestErrorFrameFitsMaxFrameLen(t *testing.T) {
	for _, msg := range []string{
		strings.Repeat("a", maxErrMsg),
		strings.Repeat("a", maxErrMsg+1),
		strings.Repeat("é", maxErrMsg),   // 2-byte runes: maxErrMsg is odd
		strings.Repeat("€", maxErrMsg),   // 3-byte runes
		strings.Repeat("ab😀", maxErrMsg), // 4-byte runes at varying offsets
	} {
		b := AppendError(nil, 1, ErrMalformed, msg)
		if n := binary.LittleEndian.Uint32(b); n > MaxFrameLen || int(n) != len(b)-lenPrefix {
			t.Fatalf("%d-byte message: length prefix %d for a %d-byte frame, MaxFrameLen %d", len(msg), n, len(b), MaxFrameLen)
		}
		_, got, ok := remoteError(readOne(t, b))
		if !ok {
			t.Fatalf("%d-byte message: no error frame", len(msg))
		}
		want := min(len(msg), maxErrMsg)
		if !utf8.ValidString(got) || !strings.HasPrefix(msg, got) || len(got) > want || len(got) <= want-utf8.UTFMax {
			t.Fatalf("%d-byte message cut to %q", len(msg), got)
		}
		if len(msg) <= maxErrMsg && got != msg {
			t.Fatalf("%d-byte message changed to %q", len(msg), got)
		}
	}
}

func TestReadFrameRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"short prefix":   {1, 0},
		"length too big": binary.LittleEndian.AppendUint32(nil, MaxFrameLen+1),
		"length too small": append(binary.LittleEndian.AppendUint32(nil, headerLen-1),
			make([]byte, headerLen-1)...),
		"bad magic": func() []byte {
			b := appendPing(nil, 1)
			b[4] = 0x00 // corrupt magic low byte
			return b
		}(),
		"bad version": func() []byte {
			b := appendPing(nil, 1)
			b[6] = 99
			return b
		}(),
		"truncated body": AppendLookup(nil, 1, keys.FromUint64(5))[:12],
	}
	for name, raw := range cases {
		_, _, err := ReadFrame(bytes.NewReader(raw), nil)
		if err == nil {
			t.Errorf("%s: ReadFrame accepted garbage", name)
		}
	}
	// A declared length larger than the bytes on the wire must error, not
	// block forever or succeed short.
	b := AppendUpdate(nil, 1, RuleUpdate{Op: UpdateInsert, Prefix: keys.FromUint64(5), Len: 32})
	if _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-8]), nil); err == nil {
		t.Error("truncated update accepted")
	}
}

func TestPayloadDecodersRejectWrongSizes(t *testing.T) {
	lk := readOne(t, AppendLookup(nil, 1, keys.FromUint64(1)))
	short := lk
	short.Payload = lk.Payload[:8]
	if _, err := short.Key(); err == nil {
		t.Error("short lookup payload accepted")
	}
	res := readOne(t, AppendResult(nil, 1, 5, true))
	badFlags := res
	badFlags.Payload = append([]byte(nil), res.Payload...)
	badFlags.Payload[8] = 7
	if _, err := badFlags.Result(); err == nil {
		t.Error("result flags 7 accepted")
	}
	upd := readOne(t, AppendUpdate(nil, 1, RuleUpdate{Op: UpdateInsert, Len: 8}))
	badOp := upd
	badOp.Payload = append([]byte(nil), upd.Payload...)
	badOp.Payload[0] = 9
	if _, err := badOp.Update(); err == nil {
		t.Error("update op 9 accepted")
	}
}

func TestOpStrings(t *testing.T) {
	for op, want := range map[Op]string{
		OpLookup: "lookup", OpUpdate: "update", OpPing: "ping",
		OpResult: "result", OpUpdateResult: "update-result",
		opPong: "pong", opError: "error", Op(0x02): "op(0x02)", Op(0x82): "op(0x82)",
	} {
		if got := op.String(); got != want {
			t.Errorf("Op(%#x).String() = %q, want %q", uint8(op), got, want)
		}
	}
}

// replayReader hands ReadFrame the same frame repeatedly without allocating.
type replayReader struct {
	data []byte
	off  int
}

func (r *replayReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestWireCodecZeroAllocs pins the encode/decode hot path — the loop a
// WireServer connection and the benchmark's sender both run — at zero
// steady-state allocations, as planetest.TestShardedBatchZeroAllocs pins the
// batch plane behind it.
func TestWireCodecZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; strict zero-alloc pin runs in the non-race suite")
	}
	k := keys.FromUint64(0x9e3779b97f4a7c15)

	// Encode: one lookup, one result.
	buf := make([]byte, 0, 8192)
	encode := func() {
		buf = AppendLookup(buf[:0], 1, k)
		buf = AppendResult(buf, 1, 7, true)
	}
	encode()
	if avg := testing.AllocsPerRun(100, encode); avg > 0 {
		t.Errorf("encode allocates %.2f/op, want 0", avg)
	}

	// Decode the same stream back with a reused frame buffer.
	src := &replayReader{data: buf}
	rbuf := make([]byte, 0, 8192)
	decode := func() {
		for i := 0; i < 2; i++ {
			f, nb, err := ReadFrame(src, rbuf)
			if err != nil {
				t.Fatal(err)
			}
			rbuf = nb
			switch f.Op {
			case OpLookup:
				if _, err := f.Key(); err != nil {
					t.Fatal(err)
				}
			case OpResult:
				if _, err := f.Result(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	decode()
	if avg := testing.AllocsPerRun(100, decode); avg > 0 {
		t.Errorf("decode allocates %.2f/op, want 0", avg)
	}
}

// TestRemoteErrorMessage: an error frame with an empty message still carries
// its code.
func TestRemoteErrorMessage(t *testing.T) {
	if code, msg, ok := remoteError(readOne(t, AppendError(nil, 9, ErrBadRequest, ""))); !ok || code != ErrBadRequest || msg != "" {
		t.Fatalf("error frame decodes to (%d, %q, %v)", code, msg, ok)
	}
}

// remoteError decodes an error frame's code and message.
func remoteError(f Frame) (code uint8, msg string, ok bool) {
	if f.Op != opError || len(f.Payload) < 1 {
		return 0, "", false
	}
	return f.Payload[0], string(f.Payload[1:]), true
}

// appendPing appends a ping frame, the one request no shipped client sends.
func appendPing(b []byte, id uint64) []byte { return appendHeader(b, OpPing, id, 0) }
