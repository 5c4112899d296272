package stats

// codec.go — the synopsis wire format, following the store's file
// conventions (see internal/core/manifest.go): a magic header, a CRC32C
// over the payload, and big-endian fixed-width fields. Path entries store
// the tag-symbol sequence only; the hash key is recomputed on decode, so a
// corrupted hash can never go undetected past the checksum.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"nok/internal/symtab"
)

const codecMagic = "NOKSY1"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a synopsis file that fails its checksum or does not
// parse. The store's Open also wraps it for a synopsis committed at
// another epoch; either way the store does not open.
var ErrCorrupt = errors.New("stats: synopsis corrupt")

// Encode serializes the synopsis.
func Encode(s *Synopsis) []byte {
	var p []byte
	u16 := func(v uint16) { p = binary.BigEndian.AppendUint16(p, v) }
	u32 := func(v uint32) { p = binary.BigEndian.AppendUint32(p, v) }
	u64 := func(v uint64) { p = binary.BigEndian.AppendUint64(p, v) }

	u64(s.Epoch)
	u64(s.TotalNodes)
	u64(s.TreePages)
	u32(s.MaxDepth)
	u64(s.ValueNodes)
	if s.PathsTruncated {
		p = append(p, 1)
	} else {
		p = append(p, 0)
	}
	u32(uint32(len(s.Tags)))
	u32(uint32(len(s.Paths)))
	p = append(p, sketchRows)
	width := 0
	if s.Values != nil {
		width = s.Values.Width()
	}
	u32(uint32(width))

	syms := make([]symtab.Sym, 0, len(s.Tags))
	for sym := range s.Tags {
		syms = append(syms, sym)
	}
	sort.Slice(syms, func(i, j int) bool { return syms[i] < syms[j] })
	for _, sym := range syms {
		t := s.Tags[sym]
		u16(uint16(sym))
		u64(t.Count)
		u64(t.WithValue)
		u64(t.SumDepth)
		u32(t.MaxDepth)
		u64(t.SumChildren)
	}

	hashes := make([]uint64, 0, len(s.Paths))
	for h := range s.Paths {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	for _, h := range hashes {
		ps := s.Paths[h]
		u64(ps.Count)
		u16(uint16(len(ps.Syms)))
		for _, sym := range ps.Syms {
			u16(uint16(sym))
		}
	}

	if s.Values != nil {
		for i := range s.Values.rows {
			for _, c := range s.Values.rows[i] {
				u32(c)
			}
		}
	}

	out := make([]byte, 0, len(codecMagic)+4+len(p))
	out = append(out, codecMagic...)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(p, castagnoli))
	return append(out, p...)
}

// Decode parses an encoded synopsis, verifying the checksum.
func Decode(raw []byte) (*Synopsis, error) {
	head := len(codecMagic) + 4
	if len(raw) < head || string(raw[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	want := binary.BigEndian.Uint32(raw[len(codecMagic):head])
	p := raw[head:]
	if crc32.Checksum(p, castagnoli) != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	short := fmt.Errorf("%w: truncated payload", ErrCorrupt)
	need := func(n int) bool { return len(p) >= n }
	u16 := func() uint16 { v := binary.BigEndian.Uint16(p); p = p[2:]; return v }
	u32 := func() uint32 { v := binary.BigEndian.Uint32(p); p = p[4:]; return v }
	u64 := func() uint64 { v := binary.BigEndian.Uint64(p); p = p[8:]; return v }

	if !need(8 + 8 + 8 + 4 + 8 + 1 + 4 + 4 + 1 + 4) {
		return nil, short
	}
	s := &Synopsis{
		Tags:  make(map[symtab.Sym]*TagStat),
		Paths: make(map[uint64]*PathStat),
	}
	s.Epoch = u64()
	s.TotalNodes = u64()
	s.TreePages = u64()
	s.MaxDepth = u32()
	s.ValueNodes = u64()
	s.PathsTruncated = p[0] == 1
	p = p[1:]
	nTags := int(u32())
	nPaths := int(u32())
	rows := int(p[0])
	p = p[1:]
	width := int(u32())
	if rows != sketchRows {
		return nil, fmt.Errorf("%w: sketch has %d rows, this build reads %d", ErrCorrupt, rows, sketchRows)
	}

	for i := 0; i < nTags; i++ {
		if !need(2 + 8 + 8 + 8 + 4 + 8) {
			return nil, short
		}
		sym := symtab.Sym(u16())
		t := &TagStat{}
		t.Count = u64()
		t.WithValue = u64()
		t.SumDepth = u64()
		t.MaxDepth = u32()
		t.SumChildren = u64()
		s.Tags[sym] = t
	}

	for i := 0; i < nPaths; i++ {
		if !need(8 + 2) {
			return nil, short
		}
		count := u64()
		n := int(u16())
		if !need(2 * n) {
			return nil, short
		}
		ps := &PathStat{Syms: make([]symtab.Sym, n), Count: count}
		h := PathSeed
		for j := 0; j < n; j++ {
			ps.Syms[j] = symtab.Sym(u16())
			h = ExtendPath(h, ps.Syms[j])
		}
		s.Paths[h] = ps
	}

	if width > 0 {
		if !need(rows * width * 4) {
			return nil, short
		}
		s.Values = NewSketch(width)
		for i := 0; i < rows; i++ {
			for j := 0; j < width; j++ {
				s.Values.rows[i][j] = u32()
			}
		}
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(p))
	}
	return s, nil
}
