package stats

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to the synopsis decoder, which a
// store's Open depends on. The seed corpus under testdata/fuzz holds a
// valid encoding, a truncated one, one with a bad checksum, and a
// checksum-valid payload claiming a 0xFFFFFFFF-wide value sketch. The
// decoder must never panic, and an accepted synopsis must re-encode to a
// fixed point: Encode(Decode(Encode(s))) == Encode(s).
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Decode(raw)
		if err != nil {
			return // rejected input is fine; panics are the failure mode
		}
		// The input need not be canonical (duplicate tag or path entries
		// collapse), so the fixed point starts at the first re-encoding.
		enc := Encode(s)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if enc2 := Encode(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not a fixed point:\n %x\n %x", enc, enc2)
		}
	})
}
