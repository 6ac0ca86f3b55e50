package wire

import (
	"bytes"
	"io"
	"testing"

	"neurolpm/internal/keys"
)

// FuzzWireCodec throws arbitrary bytes at the frame reader and every payload
// decoder. The invariants are: never panic, never read past the declared
// frame, and any frame that decodes successfully must re-encode to an
// equivalent frame (round-trip closure). Seeds cover every frame type plus
// truncations and corruptions of each.
func FuzzWireCodec(f *testing.F) {
	k := keys.FromParts(0x1122334455667788, 0x99aabbccddeeff00)
	seeds := [][]byte{
		AppendLookup(nil, 1, k),
		AppendBatch(nil, 2, []keys.Value{k, keys.FromUint64(7), {}}),
		AppendUpdate(nil, 3, RuleUpdate{Op: UpdateInsert, Prefix: k, Len: 64, Action: 9}),
		AppendUpdate(nil, 4, RuleUpdate{Op: UpdateDelete, Prefix: k, Len: 128}),
		AppendPing(nil, 5),
		AppendResult(nil, 6, 42, true),
		AppendBatchResults(nil, 7, []Result{{Action: 1, Matched: true}, {}}),
		AppendUpdateResult(nil, 8),
		AppendPong(nil, 9),
		AppendError(nil, 10, ErrBadRequest, "bad"),
		{}, {0xff}, {0, 0, 0, 0},
	}
	// Truncations and single-byte corruptions of a representative frame.
	base := AppendBatch(nil, 11, []keys.Value{k, k})
	for i := 1; i < len(base); i += 5 {
		seeds = append(seeds, base[:i])
	}
	for i := 0; i < len(base); i += 3 {
		c := append([]byte(nil), base...)
		c[i] ^= 0x80
		seeds = append(seeds, c)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var buf []byte
		for {
			before := r.Len()
			fr, nb, err := ReadFrame(r, buf)
			buf = nb
			if err != nil {
				if err == io.EOF && before != r.Len() {
					t.Fatalf("io.EOF after consuming %d bytes", before-r.Len())
				}
				return // any error ends the stream cleanly
			}
			// Consumed exactly the declared frame: prefix + length.
			if got, want := before-r.Len(), lenPrefix+headerLen+len(fr.Payload); got != want {
				t.Fatalf("frame consumed %d bytes, declared %d", got, want)
			}
			// Every decoder must tolerate this payload without panicking;
			// on success the value must re-encode to an identical frame.
			if key, err := fr.Key(); err == nil && fr.Op == OpLookup {
				if enc := AppendLookup(nil, fr.ID, key); !bytes.Equal(framePayload(enc), fr.Payload) {
					t.Fatalf("lookup round-trip mismatch")
				}
			}
			if ks, err := fr.BatchKeys(nil); err == nil && fr.Op == OpBatch {
				if enc := AppendBatch(nil, fr.ID, ks); !bytes.Equal(framePayload(enc), fr.Payload) {
					t.Fatalf("batch round-trip mismatch")
				}
			}
			if res, err := fr.Result(); err == nil && fr.Op == OpResult {
				if enc := AppendResult(nil, fr.ID, res.Action, res.Matched); !bytes.Equal(framePayload(enc), fr.Payload) {
					t.Fatalf("result round-trip mismatch")
				}
			}
			if rs, err := fr.BatchResults(nil); err == nil && fr.Op == OpBatchResult {
				if enc := AppendBatchResults(nil, fr.ID, rs); !bytes.Equal(framePayload(enc), fr.Payload) {
					t.Fatalf("batch-result round-trip mismatch")
				}
			}
			if u, err := fr.Update(); err == nil && fr.Op == OpUpdate {
				if enc := AppendUpdate(nil, fr.ID, u); !bytes.Equal(framePayload(enc), fr.Payload) {
					t.Fatalf("update round-trip mismatch")
				}
			}
			_ = fr.Err() // must not panic on any payload
		}
	})
}

// framePayload strips the length prefix and header from an encoded frame.
func framePayload(b []byte) []byte { return b[lenPrefix+headerLen:] }
