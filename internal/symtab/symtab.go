// Package symtab maps XML tag names to the fixed-width symbols of the
// storage alphabet Σ.
//
// The paper's string representation stores one 2-byte character from Σ per
// element. This package owns that mapping: tag (and attribute) names are
// interned to dense uint16 symbols, and the table is persisted alongside the
// string representation so symbols can be decoded back to names.
//
// Symbol 0 is reserved (never assigned), and the high byte 0xFF is reserved
// for the close-parenthesis marker of the string representation, so at most
// 0xFEFF-1 distinct names can be interned — far beyond any real document
// (Treebank, the richest dataset in the paper, has 250 tags).
package symtab

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"nok/internal/vfs"
)

// Sym is a 2-byte character of the storage alphabet Σ.
type Sym uint16

// MaxSym is the largest assignable symbol. Values above it would collide
// with the close-parenthesis byte marker (0xFF) in the string
// representation's encoding.
const MaxSym Sym = 0xFEFF

// ErrFull is returned by Intern when the alphabet is exhausted.
var ErrFull = errors.New("symtab: symbol alphabet exhausted")

// AttrPrefix distinguishes attribute names from element names in the table;
// the attribute year is interned as "@year", matching the paper's treatment
// of attributes as child nodes (e.g. @year → z in Example 1).
const AttrPrefix = "@"

// Table is an interning table between names and symbols. The zero value is
// not ready for use; call New.
type Table struct {
	byName map[string]Sym
	bySym  []string // index sym-1 holds the name for sym
}

// New returns an empty table.
func New() *Table {
	return &Table{byName: make(map[string]Sym)}
}

// Intern returns the symbol for name, assigning the next free symbol if the
// name has not been seen. It fails with ErrFull when the alphabet is
// exhausted.
func (t *Table) Intern(name string) (Sym, error) {
	if s, ok := t.byName[name]; ok {
		return s, nil
	}
	next := Sym(len(t.bySym) + 1)
	if next > MaxSym {
		return 0, ErrFull
	}
	t.byName[name] = next
	t.bySym = append(t.bySym, name)
	return next, nil
}

// Clone returns an independent copy of the table. Committed tables are
// immutable and shared between store snapshots; a mutation clones the
// current table and interns new names into the clone, so readers of the
// old epoch never observe a map write.
func (t *Table) Clone() *Table {
	c := &Table{
		byName: make(map[string]Sym, len(t.byName)),
		bySym:  append([]string(nil), t.bySym...),
	}
	for name, sym := range t.byName {
		c.byName[name] = sym
	}
	return c
}

// Lookup returns the symbol for name without interning.
func (t *Table) Lookup(name string) (Sym, bool) {
	s, ok := t.byName[name]
	return s, ok
}

// Name returns the name for s.
func (t *Table) Name(s Sym) (string, bool) {
	if s == 0 || int(s) > len(t.bySym) {
		return "", false
	}
	return t.bySym[s-1], true
}

// Len returns the number of interned names.
func (t *Table) Len() int { return len(t.bySym) }

// Names returns all interned names sorted lexicographically. The slice is
// freshly allocated.
func (t *Table) Names() []string {
	out := make([]string, len(t.bySym))
	copy(out, t.bySym)
	sort.Strings(out)
	return out
}

// On-disk format magic. "NKS2" carries a CRC32C of the entry payload in
// the header, so a torn or bit-flipped table is detected at load instead
// of silently decoding garbage names; the unchecksummed "NKS1" predecessor
// is refused like any other unknown magic.
var magic = [4]byte{'N', 'K', 'S', '2'}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum is returned by Read/Load when the table's stored CRC32C does
// not match its payload.
var ErrChecksum = errors.New("symtab: table checksum mismatch")

// WriteTo serializes the table. The format is:
//
//	magic "NKS2" | uint32 count | uint32 crc32c(entries) |
//	count × (uint16 nameLen | name bytes)
//
// Names are written in symbol order so symbols are implicit.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var body bytes.Buffer
	var buf [2]byte
	for _, name := range t.bySym {
		if len(name) > 0xFFFF {
			return 0, fmt.Errorf("symtab: name too long (%d bytes)", len(name))
		}
		binary.BigEndian.PutUint16(buf[:], uint16(len(name)))
		body.Write(buf[:])
		body.WriteString(name)
	}
	var hdr [12]byte
	copy(hdr[:4], magic[:])
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(t.bySym)))
	binary.BigEndian.PutUint32(hdr[8:12], crc32.Checksum(body.Bytes(), crcTable))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := w.Write(body.Bytes())
	return 12 + int64(n), err
}

// Read deserializes a table previously written with WriteTo, verifying
// the payload checksum (ErrChecksum on mismatch).
func Read(r io.Reader) (*Table, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("symtab: reading header: %w", err)
	}
	if [4]byte(hdr[:4]) != magic {
		return nil, fmt.Errorf("symtab: bad magic %q (pre-checksum file? rebuild the store)", hdr[:4])
	}
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("symtab: reading table: %w", err)
	}
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(hdr[8:12]) {
		return nil, ErrChecksum
	}
	checked := bytes.NewReader(body)
	count := binary.BigEndian.Uint32(hdr[4:8])
	if count > uint32(MaxSym) {
		return nil, fmt.Errorf("symtab: impossible symbol count %d", count)
	}
	t := New()
	nameBuf := make([]byte, 0, 64)
	for i := uint32(0); i < count; i++ {
		var lenBuf [2]byte
		if _, err := io.ReadFull(checked, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("symtab: reading name %d: %w", i, err)
		}
		nameLen := int(binary.BigEndian.Uint16(lenBuf[:]))
		if cap(nameBuf) < nameLen {
			nameBuf = make([]byte, nameLen)
		}
		nameBuf = nameBuf[:nameLen]
		if _, err := io.ReadFull(checked, nameBuf); err != nil {
			return nil, fmt.Errorf("symtab: reading name %d: %w", i, err)
		}
		name := string(nameBuf)
		if _, dup := t.byName[name]; dup {
			return nil, fmt.Errorf("symtab: duplicate name %q in table", name)
		}
		if _, err := t.Intern(name); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Save writes the table to path atomically (write temp + fsync + rename +
// directory fsync).
func (t *Table) Save(path string) error { return t.SaveFS(vfs.OS, path) }

// SaveFS is Save on an explicit file system.
func (t *Table) SaveFS(fsys vfs.FS, path string) error {
	var buf bytes.Buffer
	if _, err := t.WriteTo(&buf); err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fsys, path, buf.Bytes(), 0o644)
}

// Load reads a table from path.
func Load(path string) (*Table, error) { return LoadFS(vfs.OS, path) }

// LoadFS is Load on an explicit file system.
func LoadFS(fsys vfs.FS, path string) (*Table, error) {
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return nil, err
	}
	return Read(bytes.NewReader(data))
}
