// Package remote is the network shard backend: an HTTP client that
// implements the shard-store surface against a remote nokserve process, so
// internal/shard can scatter one query across processes and machines the
// same way it scatters across local directories.
//
// The hot path is GET /scatter, a binary endpoint added for this package:
// the remote process evaluates the pattern against its own committed
// snapshot (applying the same statistics-based pruning a local shard
// gets) and streams the matches back dewey-ordered, ready for the
// coordinator's k-way merge. Everything else — stats, planning, health,
// mutations — reuses the JSON endpoints nokserve already serves.
//
// Every call goes through a fault-tolerance stack: per-attempt timeouts,
// bounded retries with exponential backoff + jitter (idempotent reads
// only — mutations are never retried), a per-shard circuit breaker with
// half-open probing, optional hedged scatter requests, and a background
// health prober. When the stack gives up the caller sees ErrUnavailable;
// internal/shard turns that into a degraded partial result or a typed
// ErrShardUnavailable depending on the query's options.
package remote

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"nok"
	"nok/internal/dewey"
)

// scatterMagic opens every /scatter response body. A version bump means a
// coordinator and a shard disagree about the wire format; the mismatch is
// detected before any frame is trusted.
const scatterMagic = "nokscat1"

// Frame kinds of the scatter stream. A well-formed stream is
// magic, zero or more 'R' frames (or one 'P' frame), one 'S' frame,
// and exactly one terminating 'E' frame.
const (
	frameResult = 'R' // one match: dewey bytes, tag, optional value
	frameStats  = 'S' // QueryStats as JSON
	framePruned = 'P' // shard proved itself empty for this pattern
	frameEnd    = 'E' // end marker carrying the served epoch
)

// maxFrameField caps a single length-prefixed field so a corrupt or
// malicious stream cannot ask the decoder to allocate gigabytes.
const maxFrameField = 1 << 28

// maxEagerField is the largest field the decoder allocates before reading
// it. Longer fields grow as their bytes arrive, so a length prefix alone —
// say a 13-byte stream claiming a 256 MiB field — costs no more than this.
const maxEagerField = 64 << 10

// ErrTruncated reports a scatter stream that ended before its end frame.
// A short read over a failing connection must never be mistaken for a
// short (but complete) result set — the decoder insists on the explicit
// 'E' marker and fails the attempt otherwise, which makes truncation
// retryable instead of silently wrong.
var ErrTruncated = errors.New("remote: scatter stream truncated before end frame")

// ScatterResult is one shard's contribution to a scattered query, as
// decoded from a /scatter response (or produced locally by the server
// handler before encoding).
type ScatterResult struct {
	// Results are the shard's matches in ascending (local) Dewey order.
	Results []nok.Result
	// Stats are the shard's evaluation counters (nil when pruned).
	Stats *nok.QueryStats
	// Pruned reports that the remote shard proved from its statistics
	// synopsis that the pattern cannot match there; Reason says why.
	// A pruned response carries no results and no stats.
	Pruned bool
	Reason string
	// Epoch is the committed epoch the shard evaluated against.
	Epoch uint64
}

// WriteScatter encodes res as a scatter stream. The server handler calls
// this with the ResponseWriter; tests round-trip through a buffer.
func WriteScatter(w io.Writer, res *ScatterResult) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(scatterMagic); err != nil {
		return err
	}
	var scratch [binary.MaxVarintLen64]byte
	writeField := func(b []byte) error {
		n := binary.PutUvarint(scratch[:], uint64(len(b)))
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		_, err := bw.Write(b)
		return err
	}
	if res.Pruned {
		if err := bw.WriteByte(framePruned); err != nil {
			return err
		}
		if err := writeField([]byte(res.Reason)); err != nil {
			return err
		}
	} else {
		for i := range res.Results {
			r := &res.Results[i]
			id, err := dewey.Parse(r.ID)
			if err != nil {
				return fmt.Errorf("remote: result %d has bad dewey id %q: %w", i, r.ID, err)
			}
			if err := bw.WriteByte(frameResult); err != nil {
				return err
			}
			if err := writeField(id.Bytes()); err != nil {
				return err
			}
			if err := writeField([]byte(r.Tag)); err != nil {
				return err
			}
			hv := byte(0)
			if r.HasValue {
				hv = 1
			}
			if err := bw.WriteByte(hv); err != nil {
				return err
			}
			if r.HasValue {
				if err := writeField([]byte(r.Value)); err != nil {
					return err
				}
			}
		}
		if res.Stats != nil {
			js, err := json.Marshal(res.Stats)
			if err != nil {
				return err
			}
			if err := bw.WriteByte(frameStats); err != nil {
				return err
			}
			if err := writeField(js); err != nil {
				return err
			}
		}
	}
	if err := bw.WriteByte(frameEnd); err != nil {
		return err
	}
	n := binary.PutUvarint(scratch[:], res.Epoch)
	if _, err := bw.Write(scratch[:n]); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadScatter decodes a scatter stream. Any stream that ends before the
// 'E' frame — a cut connection, a truncating proxy, a dead server — fails
// with an error wrapping ErrTruncated rather than returning the partial
// prefix as if it were complete.
func ReadScatter(r io.Reader) (*ScatterResult, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(scatterMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, truncated(err)
	}
	if string(magic) != scatterMagic {
		return nil, fmt.Errorf("remote: bad scatter magic %q", magic)
	}
	readField := func() ([]byte, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, truncated(err)
		}
		if n > maxFrameField {
			return nil, fmt.Errorf("remote: scatter field of %d bytes exceeds limit", n)
		}
		if n > maxEagerField {
			var buf bytes.Buffer
			if _, err := io.CopyN(&buf, br, int64(n)); err != nil {
				return nil, truncated(err)
			}
			return buf.Bytes(), nil
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, truncated(err)
		}
		return b, nil
	}
	res := &ScatterResult{}
	for {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, truncated(err)
		}
		switch kind {
		case frameResult:
			idb, err := readField()
			if err != nil {
				return nil, err
			}
			id, err := dewey.FromBytes(idb)
			if err != nil {
				return nil, fmt.Errorf("remote: bad dewey bytes in scatter stream: %w", err)
			}
			tag, err := readField()
			if err != nil {
				return nil, err
			}
			hv, err := br.ReadByte()
			if err != nil {
				return nil, truncated(err)
			}
			out := nok.Result{ID: id.String(), Tag: string(tag), HasValue: hv != 0}
			if out.HasValue {
				val, err := readField()
				if err != nil {
					return nil, err
				}
				out.Value = string(val)
			}
			res.Results = append(res.Results, out)
		case frameStats:
			js, err := readField()
			if err != nil {
				return nil, err
			}
			st := &nok.QueryStats{}
			if err := json.Unmarshal(js, st); err != nil {
				return nil, fmt.Errorf("remote: bad stats frame: %w", err)
			}
			res.Stats = st
		case framePruned:
			reason, err := readField()
			if err != nil {
				return nil, err
			}
			res.Pruned = true
			res.Reason = string(reason)
		case frameEnd:
			epoch, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, truncated(err)
			}
			res.Epoch = epoch
			return res, nil
		default:
			return nil, fmt.Errorf("remote: unknown scatter frame kind %q", kind)
		}
	}
}

// truncated wraps a premature-EOF class error as ErrTruncated; other I/O
// errors pass through annotated.
func truncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return fmt.Errorf("remote: scatter stream read: %w", err)
}
