package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"neurolpm/internal/keys"
)

// FuzzWireCodec throws arbitrary bytes at the frame reader, the frame
// splitter and every payload decoder. The invariants are: never panic, never
// read past the declared frame; ReadFrame on the stream and Parse in a loop
// over it give the same frames of the same sizes and end the same way (a
// clean end, a truncated frame, or the same framing error); and any frame
// that decodes successfully must re-encode to an equivalent frame
// (round-trip closure). Seeds cover every frame type, the longest frame and a
// length one byte past it, the retired batch opcode, truncations and
// corruptions of the update and lookup requests, and a two-frame stream cut
// at every byte.
func FuzzWireCodec(f *testing.F) {
	k := keys.FromParts(0x1122334455667788, 0x99aabbccddeeff00)
	seeds := [][]byte{
		AppendLookup(nil, 1, k),
		AppendUpdate(nil, 3, RuleUpdate{Op: UpdateInsert, Prefix: k, Len: 64, Action: 9}),
		AppendUpdate(nil, 4, RuleUpdate{Op: UpdateDelete, Prefix: k, Len: 128}),
		appendPing(nil, 5),
		AppendResult(nil, 6, 42, true),
		AppendUpdateResult(nil, 8),
		AppendPong(nil, 9),
		AppendError(nil, 10, ErrBadRequest, "bad"),
		AppendError(nil, 12, ErrMalformed, strings.Repeat("é", MaxFrameLen)), // the longest frame
		binary.LittleEndian.AppendUint32(nil, MaxFrameLen+1),
		{}, {0xff}, {0, 0, 0, 0},
	}
	// A frame of the retired batch opcode 0x02: one key behind its count.
	retired := append(AppendLookup(nil, 13, k), 0, 0, 0, 0)
	retired[7] = 0x02
	binary.LittleEndian.PutUint32(retired, uint32(len(retired)-lenPrefix))
	seeds = append(seeds, retired)
	// Truncations and single-byte corruptions of the update and lookup
	// requests.
	for _, base := range [][]byte{
		AppendUpdate(nil, 11, RuleUpdate{Op: UpdateModify, Prefix: k, Len: 24, Action: 5}),
		AppendLookup(nil, 14, k),
	} {
		for i := 1; i < len(base); i += 5 {
			seeds = append(seeds, base[:i])
		}
		for i := 0; i < len(base); i += 3 {
			c := append([]byte(nil), base...)
			c[i] ^= 0x80
			seeds = append(seeds, c)
		}
	}
	two := AppendUpdate(AppendLookup(nil, 15, k), 16, RuleUpdate{Op: UpdateInsert, Prefix: k, Len: 8, Action: 1})
	for i := range two {
		seeds = append(seeds, two[:i])
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		rest := data // what Parse has not split off yet
		var buf []byte
		for {
			before := r.Len()
			fr, nb, err := ReadFrame(r, buf)
			buf = nb
			pf, n, perr := Parse(rest)
			if got, want := parseEnd(n, perr, len(rest)), readEnd(err); got != want {
				t.Fatalf("Parse ends %q where ReadFrame ends %q", got, want)
			}
			if err != nil {
				if err == io.EOF && before != r.Len() {
					t.Fatalf("io.EOF after consuming %d bytes", before-r.Len())
				}
				return // any error ends the stream cleanly
			}
			// Consumed exactly the declared frame: prefix + length.
			if got, want := before-r.Len(), lenPrefix+headerLen+len(fr.Payload); got != want || n != want {
				t.Fatalf("frame consumed %d bytes and Parse split %d, declared %d", got, n, want)
			}
			if pf.Op != fr.Op || pf.ID != fr.ID || !bytes.Equal(pf.Payload, fr.Payload) {
				t.Fatalf("Parse split %s id=%d %x, ReadFrame read %s id=%d %x", pf.Op, pf.ID, pf.Payload, fr.Op, fr.ID, fr.Payload)
			}
			rest = rest[n:]
			// Every decoder must tolerate this payload without panicking;
			// on success the value must re-encode to an identical frame.
			if key, err := fr.Key(); err == nil && fr.Op == OpLookup {
				if enc := AppendLookup(nil, fr.ID, key); !bytes.Equal(framePayload(enc), fr.Payload) {
					t.Fatalf("lookup round-trip mismatch")
				}
			}
			if res, err := fr.Result(); err == nil && fr.Op == OpResult {
				if enc := AppendResult(nil, fr.ID, res.Action, res.Matched); !bytes.Equal(framePayload(enc), fr.Payload) {
					t.Fatalf("result round-trip mismatch")
				}
			}
			if u, err := fr.Update(); err == nil && fr.Op == OpUpdate {
				if enc := AppendUpdate(nil, fr.ID, u); !bytes.Equal(framePayload(enc), fr.Payload) {
					t.Fatalf("update round-trip mismatch")
				}
			}
			if code, msg, ok := remoteError(fr); ok {
				if enc := AppendError(nil, fr.ID, code, msg); !bytes.Equal(framePayload(enc), fr.Payload) {
					t.Fatalf("error round-trip mismatch")
				}
			}
		}
	})
}

// readEnd names how ReadFrame ended: "" for a frame, "end" for a clean end
// of the stream, "truncated" for one inside a frame, or its framing error.
func readEnd(err error) string {
	switch {
	case err == nil:
		return ""
	case err == io.EOF:
		return "end"
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	}
	return err.Error()
}

// parseEnd names the same for Parse's answer on the rest bytes of a stream.
func parseEnd(n int, err error, rest int) string {
	switch {
	case err != nil:
		return err.Error()
	case n > 0:
		return ""
	case rest == 0:
		return "end"
	}
	return "truncated"
}

// framePayload strips the length prefix and header from an encoded frame.
func framePayload(b []byte) []byte { return b[lenPrefix+headerLen:] }
