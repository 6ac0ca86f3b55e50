package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

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
// payload, for any id, key or answer — so a query costs 57 bytes on the wire.
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
		{"result, no match, max action", AppendResult(nil, ^uint64(0), ^uint64(0), false), 4 + 12 + 9},
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

func TestBatchRoundTrip(t *testing.T) {
	ks := []keys.Value{
		keys.FromUint64(1),
		keys.FromParts(^uint64(0), ^uint64(0)),
		{},
	}
	f := readOne(t, AppendBatch(nil, 7, ks))
	if f.Op != OpBatch {
		t.Fatalf("op %v, want batch", f.Op)
	}
	got, err := f.BatchKeys(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ks) {
		t.Fatalf("%d keys, want %d", len(got), len(ks))
	}
	for i := range ks {
		if got[i] != ks[i] {
			t.Fatalf("key %d: %v, want %v", i, got[i], ks[i])
		}
	}
}

func TestResultAndBatchResultRoundTrip(t *testing.T) {
	f := readOne(t, AppendResult(nil, 9, 12345, true))
	r, err := f.Result()
	if err != nil {
		t.Fatal(err)
	}
	if r.Action != 12345 || !r.Matched {
		t.Fatalf("result %+v", r)
	}

	res := []Result{{Action: 1, Matched: true}, {Action: 0, Matched: false}, {Action: ^uint64(0), Matched: true}}
	f = readOne(t, AppendBatchResults(nil, 10, res))
	got, err := f.BatchResults(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res) {
		t.Fatalf("%d results, want %d", len(got), len(res))
	}
	for i := range res {
		if got[i] != res[i] {
			t.Fatalf("result %d: %+v, want %+v", i, got[i], res[i])
		}
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
	if f := readOne(t, AppendPing(nil, 1)); f.Op != OpPing || len(f.Payload) != 0 {
		t.Fatalf("ping frame %+v", f)
	}
	if f := readOne(t, AppendPong(nil, 1)); f.Op != OpPong {
		t.Fatalf("pong frame %+v", f)
	}
	f := readOne(t, AppendError(nil, 5, ErrBackpressure, "delta buffer full"))
	err := f.Err()
	re, ok := err.(*RemoteError)
	if !ok || re.Code != ErrBackpressure || re.Msg != "delta buffer full" {
		t.Fatalf("error %v", err)
	}
}

func TestStreamOfFramesSharesBuffer(t *testing.T) {
	var b []byte
	b = AppendLookup(b, 1, keys.FromUint64(10))
	b = AppendPing(b, 2)
	b = AppendLookup(b, 3, keys.FromUint64(30))
	r := bytes.NewReader(b)
	var buf []byte
	var err error
	var f Frame
	for want := uint64(1); want <= 3; want++ {
		f, buf, err = ReadFrame(r, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", want, err)
		}
		if f.ID != want {
			t.Fatalf("id %d, want %d", f.ID, want)
		}
	}
	if _, _, err = ReadFrame(r, buf); err != io.EOF {
		t.Fatalf("after stream: %v, want io.EOF", err)
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
			b := AppendPing(nil, 1)
			b[4] = 0x00 // corrupt magic low byte
			return b
		}(),
		"bad version": func() []byte {
			b := AppendPing(nil, 1)
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
	b := AppendBatch(nil, 1, make([]keys.Value, 4))
	if _, _, err := ReadFrame(bytes.NewReader(b[:len(b)-8]), nil); err == nil {
		t.Error("truncated batch accepted")
	}
}

func TestPayloadDecodersRejectWrongSizes(t *testing.T) {
	lk := readOne(t, AppendLookup(nil, 1, keys.FromUint64(1)))
	short := lk
	short.Payload = lk.Payload[:8]
	if _, err := short.Key(); err == nil {
		t.Error("short lookup payload accepted")
	}
	batch := readOne(t, AppendBatch(nil, 1, []keys.Value{{}}))
	bad := batch
	bad.Payload = append([]byte(nil), batch.Payload...)
	binary.LittleEndian.PutUint32(bad.Payload, 2) // count lies about length
	if _, err := bad.BatchKeys(nil); err == nil {
		t.Error("batch count/length mismatch accepted")
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
		OpLookup: "lookup", OpBatch: "batch", OpUpdate: "update", OpPing: "ping",
		OpResult: "result", OpBatchResult: "batch-result", OpUpdateResult: "update-result",
		OpPong: "pong", OpError: "error", Op(0x55): "op(0x55)",
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
// WireServer connection and a load-driver sender both run — at zero
// steady-state allocations (the PR 10 acceptance bar, alongside
// TestCachedBatchZeroAllocs).
func TestWireCodecZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; strict zero-alloc pin runs in the non-race suite")
	}
	ks := make([]keys.Value, 64)
	for i := range ks {
		ks[i] = keys.FromUint64(uint64(i) * 0x9e3779b97f4a7c15)
	}
	res := make([]Result, 64)
	for i := range res {
		res[i] = Result{Action: uint64(i), Matched: i%2 == 0}
	}

	// Encode: one lookup, one result, one 64-key batch, one batch result.
	buf := make([]byte, 0, 8192)
	encode := func() {
		buf = AppendLookup(buf[:0], 1, ks[0])
		buf = AppendResult(buf, 1, 7, true)
		buf = AppendBatch(buf, 2, ks)
		buf = AppendBatchResults(buf, 2, res)
	}
	encode()
	if avg := testing.AllocsPerRun(100, encode); avg > 0 {
		t.Errorf("encode allocates %.2f/op, want 0", avg)
	}

	// Decode the same stream back with a reused frame buffer and scratch.
	src := &replayReader{data: buf}
	rbuf := make([]byte, 0, 8192)
	kScratch := make([]keys.Value, 0, 64)
	rScratch := make([]Result, 0, 64)
	decode := func() {
		for i := 0; i < 4; i++ {
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
			case OpBatch:
				if kScratch, err = f.BatchKeys(kScratch[:0]); err != nil {
					t.Fatal(err)
				}
			case OpBatchResult:
				if rScratch, err = f.BatchResults(rScratch[:0]); err != nil {
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

func TestRemoteErrorMessage(t *testing.T) {
	e := &RemoteError{Code: ErrBadRequest, Msg: "no"}
	if !strings.Contains(e.Error(), "2") || !strings.Contains(e.Error(), "no") {
		t.Fatalf("error text %q", e.Error())
	}
}
