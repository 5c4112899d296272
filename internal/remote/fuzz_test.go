package remote

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

// FuzzReadScatter feeds arbitrary bytes to the scatter decoder. The seed
// corpus under testdata/fuzz holds a valid stream, a pruned stream, a
// truncated stream and a 13-byte stream claiming a 256 MiB field. The
// decoder must never panic; an accepted stream must re-encode to a fixed
// point (the encoding of a decode decodes and re-encodes to itself), and
// every strict prefix of that encoding must fail as truncation.
func FuzzReadScatter(f *testing.F) {
	f.Fuzz(func(t *testing.T, src []byte) {
		res, err := ReadScatter(bytes.NewReader(src))
		if err != nil {
			return // rejected input is fine; panics are the failure mode
		}
		// The input itself need not be canonical (varint padding, JSON
		// spacing, both P and R frames), so the fixed point starts at the
		// first re-encoding.
		enc := encodeScatter(t, res)
		again, err := ReadScatter(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v\n%q", err, enc)
		}
		if enc2 := encodeScatter(t, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding not a fixed point:\n %q\n %q", enc, enc2)
		}
		for n := 0; n < len(enc); n++ {
			if _, err := ReadScatter(bytes.NewReader(enc[:n])); !errors.Is(err, ErrTruncated) {
				t.Fatalf("prefix %d/%d: got %v, want ErrTruncated", n, len(enc), err)
			}
		}
	})
}

func encodeScatter(t *testing.T, res *ScatterResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteScatter(&buf, res); err != nil {
		t.Fatalf("re-encoding a decoded stream: %v", err)
	}
	return buf.Bytes()
}

// TestReadScatterOversizedLength: a field length is only a claim until the
// bytes arrive, so a stream that announces a 256 MiB result field and then
// ends must fail as truncation without allocating anything like it.
func TestReadScatterOversizedLength(t *testing.T) {
	src := []byte("nokscat1R\xff\xff\xff\x7f") // magic, 'R', uvarint 2^28-1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadScatter(bytes.NewReader(src))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("got %v, want ErrTruncated", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("decoding allocated %d bytes, want < 1 MiB", d)
	}
}
