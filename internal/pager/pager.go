// Package pager provides fixed-size paged file storage with a pinning
// buffer pool.
//
// Every on-disk structure in this repository — the succinct string
// representation (internal/stree), the B+ trees (internal/btree) and the
// value data file (internal/vstore) — lives in a pager file. The pager is
// deliberately unaware of what its clients store in a page: a page is an
// opaque byte array plus bookkeeping.
//
// Page 0 of every file is the file header; data pages are numbered from 1.
// The header carries a small client "meta" area where clients persist their
// own root pointers and statistics.
//
// # Integrity (format version 2)
//
// Every physical page — header included — carries an 8-byte trailer holding
// a CRC32C checksum of the page payload. The checksum is computed on every
// physical write and verified on every physical read; a mismatch surfaces
// as ErrChecksum, wrapped with the page id and file path. A page whose
// payload and trailer are entirely zero is a never-written page (Allocate
// extends the file lazily) and reads back as zeroes without a checksum
// error. The physical page size on disk is therefore PageSize+8; PageSize
// remains the client-visible payload size.
//
// # Crash safety
//
// A file that is updated after it commits runs in versioned mode
// (versions.go): a copy-on-write transaction (BeginCOW … SealCOW /
// Publish) relocates every page it touches, so a committed page is never
// overwritten and a crash leaves the previous version intact. Plain files
// are written once and committed whole by their owner (internal/core's
// manifest).
//
// The pool counts physical reads, physical writes and cache hits. Those
// counters are how the benchmark harness verifies the paper's Proposition 1
// (the physical NoK matcher reads every page at most once).
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"nok/internal/obs"
	"nok/internal/vfs"
)

// Process-wide I/O counters, aggregated across every pager file and exposed
// through the default obs registry (per-file counters live in File.Stats).
var (
	mReads  = obs.Default.Counter("nok_pager_physical_reads_total", "pages read from the OS across all pager files")
	mWrites = obs.Default.Counter("nok_pager_physical_writes_total", "pages written to the OS across all pager files")
	mHits   = obs.Default.Counter("nok_pager_cache_hits_total", "page requests served from the buffer pool")
	mAllocs = obs.Default.Counter("nok_pager_allocations_total", "pages allocated")
	mFrees  = obs.Default.Counter("nok_pager_frees_total", "pages returned to the free list")
)

// PageID identifies a data page. 0 is invalid (it is the file header).
type PageID uint32

// InvalidPage is the zero PageID.
const InvalidPage PageID = 0

const (
	// MinPageSize is small enough to exercise page-spanning logic in tests;
	// production files use DefaultPageSize.
	MinPageSize = 128
	// DefaultPageSize matches the paper's 4KB example in §4.2.
	DefaultPageSize = 4096
	// MaxMetaLen is the number of client meta bytes stored in the header.
	MaxMetaLen = 64

	// TrailerLen is the per-page integrity trailer appended to every
	// physical page: crc32c(payload) u32 followed by 4 reserved bytes.
	TrailerLen = 8

	headerMagic = "NKPG"
	// headerVersion 2 introduced the per-page checksum trailer; version 1
	// files (no trailers) are refused with a descriptive error.
	headerVersion = 2
	// header layout: magic[4] version[2] pageSize[4] numPages[4] freeHead[4]
	// metaLen[2] meta[MaxMetaLen]
	headerFixed = 4 + 2 + 4 + 4 + 4 + 2
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on amd64 and
// arm64 — the same choice as iSCSI, ext4 and Snappy.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by the pager.
var (
	ErrPageOutOfRange = errors.New("pager: page id out of range")
	ErrClosed         = errors.New("pager: file is closed")
	ErrPoolExhausted  = errors.New("pager: all buffer frames are pinned")
	// ErrChecksum reports a page whose stored CRC32C does not match its
	// payload — a torn write or bit rot. It is wrapped with the page id
	// and file path.
	ErrChecksum = errors.New("pager: page checksum mismatch")
	// ErrInTx is returned when BeginCOW is called while a copy-on-write
	// transaction is already open.
	ErrInTx = errors.New("pager: update transaction already open")
)

// Stats are cumulative I/O counters for a File.
type Stats struct {
	PhysicalReads  int64 // pages read from the OS
	PhysicalWrites int64 // pages written to the OS
	CacheHits      int64 // Get calls satisfied from the pool
	Allocations    int64 // pages allocated
	Frees          int64 // pages returned to the free list
}

// fileStats is the live, atomically updated form of Stats. Counters are
// atomics (not ints guarded by the pool mutex) so Stats and ResetStats can
// run concurrently with I/O without a data race — benchmarks and the
// metrics exporter read them from other goroutines.
type fileStats struct {
	reads, writes, hits, allocs, frees atomic.Int64
}

func (fs *fileStats) snapshot() Stats {
	return Stats{
		PhysicalReads:  fs.reads.Load(),
		PhysicalWrites: fs.writes.Load(),
		CacheHits:      fs.hits.Load(),
		Allocations:    fs.allocs.Load(),
		Frees:          fs.frees.Load(),
	}
}

func (fs *fileStats) reset() {
	fs.reads.Store(0)
	fs.writes.Store(0)
	fs.hits.Store(0)
	fs.allocs.Store(0)
	fs.frees.Store(0)
}

// Page is a pinned buffer-pool frame. Callers must Unpin every page they
// Get or Allocate, and must call MarkDirty before unpinning if they changed
// Data. Data is exactly PageSize bytes.
type Page struct {
	id   PageID // physical id: the pool key and on-disk location
	data []byte
	// logical is the id clients address the page by. In a plain file it
	// equals id; in a versioned file copy-on-write remaps a stable logical
	// id onto fresh physical pages. Written once at frame creation (under
	// the file mutex) and never changed while the frame is pooled.
	logical PageID
	pins    int
	dirty   bool

	// LRU list links; only meaningful while pins == 0.
	prev, next *Page
}

// ID returns the page's identifier as seen by clients. In a versioned file
// this is the stable logical id, not the physical location.
func (p *Page) ID() PageID { return p.logical }

// Data returns the page's byte buffer. The slice is valid while the page is
// pinned.
func (p *Page) Data() []byte { return p.data }

// MarkDirty records that Data was modified so the frame is written back
// before eviction or on Flush.
func (p *Page) MarkDirty() { p.dirty = true }

// File is a paged file with a buffer pool. All methods are safe for
// concurrent use; pages themselves follow a pin-before-use discipline.
type File struct {
	mu sync.Mutex

	f        vfs.File
	path     string
	pageSize int
	physSize int    // pageSize + TrailerLen, the on-disk page stride
	numPages uint32 // data pages (excluding header)
	freeHead PageID
	meta     [MaxMetaLen]byte
	metaLen  int

	pool     map[PageID]*Page
	capacity int
	// lru is a doubly-linked list of unpinned frames; lruHead is least
	// recently used (next eviction victim), lruTail most recently used.
	lruHead, lruTail *Page

	// scratch is the physical-page staging buffer (payload + trailer).
	// All physical I/O happens under mu, so one buffer per file suffices.
	scratch []byte

	// vs is non-nil when the file runs in versioned (multi-version
	// copy-on-write) mode; see versions.go.
	vs *verState

	stats  fileStats
	closed bool

	headerDirty bool
}

// Options configure Create and Open.
type Options struct {
	// PageSize is the page size in bytes for Create; Open verifies it if
	// non-zero. Defaults to DefaultPageSize.
	PageSize int
	// PoolPages is the buffer-pool capacity in frames. Defaults to 256.
	PoolPages int
	// FS is the file system to operate on. Defaults to vfs.OS; tests
	// substitute internal/faultfs for crash injection.
	FS vfs.FS
}

func (o *Options) withDefaults() Options {
	out := Options{PageSize: DefaultPageSize, PoolPages: 256, FS: vfs.OS}
	if o != nil {
		if o.PageSize != 0 {
			out.PageSize = o.PageSize
		}
		if o.PoolPages != 0 {
			out.PoolPages = o.PoolPages
		}
		if o.FS != nil {
			out.FS = o.FS
		}
	}
	return out
}

// Create creates a new paged file at path, failing if it already exists.
func Create(path string, opts *Options) (*File, error) {
	o := opts.withDefaults()
	if o.PageSize < MinPageSize {
		return nil, fmt.Errorf("pager: page size %d below minimum %d", o.PageSize, MinPageSize)
	}
	f, err := o.FS.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	pf := &File{
		f:        f,
		path:     path,
		pageSize: o.PageSize,
		physSize: o.PageSize + TrailerLen,
		pool:     make(map[PageID]*Page),
		capacity: o.PoolPages,
	}
	pf.scratch = make([]byte, pf.physSize)
	pf.headerDirty = true
	if err := pf.writeHeader(); err != nil {
		f.Close()
		o.FS.Remove(path)
		return nil, err
	}
	return pf, nil
}

// Open opens an existing paged file.
func Open(path string, opts *Options) (*File, error) {
	o := opts.withDefaults()
	f, err := o.FS.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	pf := &File{
		f:    f,
		path: path,
		pool: make(map[PageID]*Page),
	}
	if err := pf.readHeader(); err != nil {
		f.Close()
		return nil, err
	}
	if opts != nil && opts.PageSize != 0 && opts.PageSize != pf.pageSize {
		f.Close()
		return nil, fmt.Errorf("pager: %s has page size %d, expected %d", path, pf.pageSize, opts.PageSize)
	}
	pf.capacity = o.PoolPages
	return pf, nil
}

// headerPayload renders the header fields into a full page payload.
func (pf *File) headerPayload(buf []byte) {
	clear(buf)
	copy(buf[0:4], headerMagic)
	binary.BigEndian.PutUint16(buf[4:6], headerVersion)
	binary.BigEndian.PutUint32(buf[6:10], uint32(pf.pageSize))
	binary.BigEndian.PutUint32(buf[10:14], pf.numPages)
	binary.BigEndian.PutUint32(buf[14:18], uint32(pf.freeHead))
	binary.BigEndian.PutUint16(buf[18:20], uint16(pf.metaLen))
	copy(buf[headerFixed:], pf.meta[:])
}

func (pf *File) writeHeader() error {
	buf := make([]byte, pf.pageSize)
	pf.headerPayload(buf)
	if err := pf.writePhysical(0, buf); err != nil {
		return fmt.Errorf("pager: writing header: %w", err)
	}
	pf.stats.writes.Add(1)
	mWrites.Inc()
	pf.headerDirty = false
	return nil
}

// readHeader bootstraps the header: a prefix read discovers the page size,
// then the full physical header page is read back and checksum-verified.
func (pf *File) readHeader() error {
	var fixed [headerFixed + MaxMetaLen]byte
	if n, err := pf.f.ReadAt(fixed[:], 0); err != nil && err != io.EOF {
		return fmt.Errorf("pager: reading header: %w", err)
	} else if n < headerFixed {
		return fmt.Errorf("pager: %s: truncated header (%d bytes)", pf.path, n)
	}
	if string(fixed[0:4]) != headerMagic {
		return fmt.Errorf("pager: %s: bad magic %q", pf.path, fixed[0:4])
	}
	if v := binary.BigEndian.Uint16(fixed[4:6]); v != headerVersion {
		return fmt.Errorf("pager: %s: unsupported format version %d (want %d; rebuild the store)", pf.path, v, headerVersion)
	}
	pf.pageSize = int(binary.BigEndian.Uint32(fixed[6:10]))
	if pf.pageSize < MinPageSize {
		return fmt.Errorf("pager: %s: corrupt page size %d", pf.path, pf.pageSize)
	}
	pf.physSize = pf.pageSize + TrailerLen
	pf.scratch = make([]byte, pf.physSize)

	// Re-read the whole header page with checksum verification.
	payload := make([]byte, pf.pageSize)
	if err := pf.readPhysical(0, payload); err != nil {
		return err
	}
	pf.stats.reads.Add(1)
	mReads.Inc()
	pf.numPages = binary.BigEndian.Uint32(payload[10:14])
	pf.freeHead = PageID(binary.BigEndian.Uint32(payload[14:18]))
	pf.metaLen = int(binary.BigEndian.Uint16(payload[18:20]))
	if pf.metaLen > MaxMetaLen {
		return fmt.Errorf("pager: %s: corrupt meta length %d", pf.path, pf.metaLen)
	}
	copy(pf.meta[:], payload[headerFixed:headerFixed+MaxMetaLen])
	return nil
}

// PageSize returns the page size in bytes.
func (pf *File) PageSize() int { return pf.pageSize }

// NumPages returns the number of data pages ever allocated (including pages
// currently on the free list).
func (pf *File) NumPages() int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return int(pf.numPages)
}

// Stats returns a snapshot of the I/O counters. It takes no lock: the
// counters are atomics, so it is safe (and cheap) to call concurrently with
// I/O on any goroutine.
func (pf *File) Stats() Stats {
	return pf.stats.snapshot()
}

// ResetStats zeroes the I/O counters (used between benchmark phases).
func (pf *File) ResetStats() {
	pf.stats.reset()
}

// Meta returns a copy of the client meta area. In a versioned file this is
// the writer's view: the open transaction's meta if one is open, the
// current version's otherwise (meta is versioned alongside the page table,
// not stored in the file header).
func (pf *File) Meta() []byte {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.vs != nil {
		if pf.vs.tx != nil {
			return append([]byte(nil), pf.vs.tx.meta...)
		}
		return append([]byte(nil), pf.vs.cur.meta...)
	}
	out := make([]byte, pf.metaLen)
	copy(out, pf.meta[:pf.metaLen])
	return out
}

// SetMeta replaces the client meta area (at most MaxMetaLen bytes) and
// schedules a header write on the next Flush. In a versioned file the meta
// belongs to the open copy-on-write transaction and becomes visible to
// readers only when the transaction is published.
func (pf *File) SetMeta(b []byte) error {
	if len(b) > MaxMetaLen {
		return fmt.Errorf("pager: meta too large: %d > %d", len(b), MaxMetaLen)
	}
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return ErrClosed
	}
	if pf.vs != nil {
		if pf.vs.tx == nil {
			return fmt.Errorf("pager: SetMeta on versioned file outside a transaction")
		}
		pf.vs.tx.meta = append([]byte(nil), b...)
		return nil
	}
	pf.meta = [MaxMetaLen]byte{}
	copy(pf.meta[:], b)
	pf.metaLen = len(b)
	pf.headerDirty = true
	return nil
}

func (pf *File) pageOffset(id PageID) int64 {
	return int64(id) * int64(pf.physSize)
}

// writePhysical stages payload plus its checksum trailer and writes the
// physical page. Caller holds mu.
func (pf *File) writePhysical(id PageID, payload []byte) error {
	copy(pf.scratch, payload)
	binary.BigEndian.PutUint32(pf.scratch[pf.pageSize:], crc32.Checksum(payload, crcTable))
	clear(pf.scratch[pf.pageSize+4 : pf.physSize])
	if _, err := pf.f.WriteAt(pf.scratch, pf.pageOffset(id)); err != nil {
		return fmt.Errorf("pager: writing page %d: %w", id, err)
	}
	return nil
}

// readPhysical reads the physical page id into payload, verifying the
// checksum trailer. A page at or beyond EOF, or one that is entirely zero
// (allocated but never written), reads back as zeroes. Caller holds mu.
func (pf *File) readPhysical(id PageID, payload []byte) error {
	n, err := pf.f.ReadAt(pf.scratch, pf.pageOffset(id))
	if err != nil && err != io.EOF {
		return fmt.Errorf("pager: reading page %d: %w", id, err)
	}
	if n == 0 {
		clear(payload)
		return nil
	}
	if n == pf.physSize {
		stored := binary.BigEndian.Uint32(pf.scratch[pf.pageSize:])
		if crc32.Checksum(pf.scratch[:pf.pageSize], crcTable) == stored {
			copy(payload, pf.scratch[:pf.pageSize])
			return nil
		}
	}
	// Short read at the file tail, or a full page failing its CRC: an
	// all-zero image is a never-written page; anything else is damage.
	if allZero(pf.scratch[:n]) {
		clear(payload)
		return nil
	}
	return fmt.Errorf("%w: page %d of %s", ErrChecksum, id, pf.path)
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// lruRemove unlinks p from the LRU list.
func (pf *File) lruRemove(p *Page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else if pf.lruHead == p {
		pf.lruHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else if pf.lruTail == p {
		pf.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}

// lruPush appends p as most-recently-used.
func (pf *File) lruPush(p *Page) {
	p.prev = pf.lruTail
	p.next = nil
	if pf.lruTail != nil {
		pf.lruTail.next = p
	}
	pf.lruTail = p
	if pf.lruHead == nil {
		pf.lruHead = p
	}
}

// evictOne writes back and removes the least-recently-used unpinned frame.
func (pf *File) evictOne() error {
	victim := pf.lruHead
	if victim == nil {
		return ErrPoolExhausted
	}
	if victim.dirty {
		if err := pf.writePage(victim); err != nil {
			return err
		}
	}
	pf.lruRemove(victim)
	delete(pf.pool, victim.id)
	return nil
}

func (pf *File) writePage(p *Page) error {
	if err := pf.writePhysical(p.id, p.data); err != nil {
		return err
	}
	pf.stats.writes.Add(1)
	mWrites.Inc()
	p.dirty = false
	return nil
}

// frame returns a pinned frame for physical page id, loading from disk when
// load is true, zero-filling otherwise. logical is the client-visible id
// recorded on a freshly created frame (equal to id in plain files).
func (pf *File) frame(id, logical PageID, load bool) (*Page, error) {
	if p, ok := pf.pool[id]; ok {
		if p.pins == 0 {
			pf.lruRemove(p)
		}
		p.pins++
		pf.stats.hits.Add(1)
		mHits.Inc()
		return p, nil
	}
	for len(pf.pool) >= pf.capacity {
		if err := pf.evictOne(); err != nil {
			return nil, err
		}
	}
	p := &Page{id: id, logical: logical, data: make([]byte, pf.pageSize), pins: 1}
	if load {
		if err := pf.readPhysical(id, p.data); err != nil {
			return nil, err
		}
		pf.stats.reads.Add(1)
		mReads.Inc()
	}
	pf.pool[id] = p
	return p, nil
}

// Get returns page id pinned. The caller must Unpin it. In a versioned file
// id is a logical id resolved through the writer's view: the open
// copy-on-write transaction if there is one, the current version otherwise.
func (pf *File) Get(id PageID) (*Page, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil, ErrClosed
	}
	if pf.vs != nil {
		phys, err := pf.vs.resolveWriter(id)
		if err != nil {
			return nil, fmt.Errorf("%w (%s)", err, pf.path)
		}
		return pf.frame(phys, id, true)
	}
	if id == InvalidPage || uint32(id) > pf.numPages {
		return nil, fmt.Errorf("%w: %d (have %d)", ErrPageOutOfRange, id, pf.numPages)
	}
	return pf.frame(id, id, true)
}

// GetMut returns page id pinned for modification. In a plain file it is
// exactly Get. In a versioned file it requires an open copy-on-write
// transaction: the first GetMut of a committed page within a transaction
// copies it onto a fresh physical page (leaving every older version's image
// untouched), and subsequent GetMuts return the private copy.
func (pf *File) GetMut(id PageID) (*Page, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil, ErrClosed
	}
	if pf.vs == nil {
		if id == InvalidPage || uint32(id) > pf.numPages {
			return nil, fmt.Errorf("%w: %d (have %d)", ErrPageOutOfRange, id, pf.numPages)
		}
		return pf.frame(id, id, true)
	}
	return pf.getMutLocked(id)
}

// Allocate returns a new zeroed page, pinned and marked dirty. The caller
// must Unpin it.
func (pf *File) Allocate() (*Page, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil, ErrClosed
	}
	if pf.vs != nil {
		return pf.allocateVersionedLocked()
	}
	var id PageID
	if pf.freeHead != InvalidPage {
		// Pop the free list: the first 4 bytes of a free page hold the
		// next free page id.
		id = pf.freeHead
		p, err := pf.frame(id, id, true)
		if err != nil {
			return nil, err
		}
		pf.freeHead = PageID(binary.BigEndian.Uint32(p.data[0:4]))
		pf.headerDirty = true
		clear(p.data)
		p.dirty = true
		pf.stats.allocs.Add(1)
		mAllocs.Inc()
		return p, nil
	}
	pf.numPages++
	pf.headerDirty = true
	id = PageID(pf.numPages)
	p, err := pf.frame(id, id, false)
	if err != nil {
		pf.numPages--
		return nil, err
	}
	p.dirty = true
	pf.stats.allocs.Add(1)
	mAllocs.Inc()
	return p, nil
}

// Free returns page id to the free list. The page must not be pinned by the
// caller (or anyone else). In a versioned file the logical id is released
// from the open transaction's table; the physical page is recycled only
// when no committed version references it anymore.
func (pf *File) Free(id PageID) error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return ErrClosed
	}
	if pf.vs != nil {
		return pf.freeVersionedLocked(id)
	}
	if id == InvalidPage || uint32(id) > pf.numPages {
		return fmt.Errorf("%w: %d", ErrPageOutOfRange, id)
	}
	if p, ok := pf.pool[id]; ok && p.pins > 0 {
		return fmt.Errorf("pager: freeing pinned page %d", id)
	}
	p, err := pf.frame(id, id, false)
	if err != nil {
		return err
	}
	clear(p.data)
	binary.BigEndian.PutUint32(p.data[0:4], uint32(pf.freeHead))
	p.dirty = true
	pf.freeHead = id
	pf.headerDirty = true
	pf.unpin(p)
	pf.stats.frees.Add(1)
	mFrees.Inc()
	return nil
}

// Unpin releases one pin on p. When the pin count reaches zero the frame
// becomes evictable.
func (pf *File) Unpin(p *Page) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	pf.unpin(p)
}

func (pf *File) unpin(p *Page) {
	if p.pins <= 0 {
		panic(fmt.Sprintf("pager: unpin of unpinned page %d", p.id))
	}
	p.pins--
	if p.pins == 0 {
		pf.lruPush(p)
	}
}

// Flush writes all dirty frames and the header to the OS and syncs.
func (pf *File) Flush() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return ErrClosed
	}
	return pf.flushLocked()
}

func (pf *File) flushLocked() error {
	for _, p := range pf.pool {
		if p.dirty {
			if err := pf.writePage(p); err != nil {
				return err
			}
		}
	}
	// A versioned file never rewrites its header page: nothing could roll
	// back a torn in-place write, and nothing in the header is mutable in
	// versioned mode anyway — meta lives in the version sidecar and the
	// page count is re-derived from the file size at InstallVersion.
	if pf.headerDirty && pf.vs == nil {
		if err := pf.writeHeader(); err != nil {
			return err
		}
	}
	return pf.f.Sync()
}

// Close flushes and closes the file. Pinned pages are a programming error
// and are reported.
func (pf *File) Close() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil
	}
	var pinned int
	for _, p := range pf.pool {
		if p.pins > 0 {
			pinned++
		}
	}
	if err := pf.flushLocked(); err != nil {
		return err
	}
	pf.closed = true
	err := pf.f.Close()
	if pinned > 0 && err == nil {
		err = fmt.Errorf("pager: closed with %d pinned page(s)", pinned)
	}
	return err
}

// VerifyPages reads every physical page (header included) directly from
// disk and checks its checksum trailer, bypassing the buffer pool. It
// reports each damaged page through report and returns the number of pages
// it examined. The file must be quiescent (no dirty pool frames); call it
// on a freshly opened or freshly flushed file.
func (pf *File) VerifyPages(report func(id PageID, err error)) (int, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return 0, ErrClosed
	}
	payload := make([]byte, pf.pageSize)
	checked := 0
	for id := PageID(0); uint32(id) <= pf.numPages; id++ {
		if err := pf.readPhysical(id, payload); err != nil {
			report(id, err)
		}
		checked++
	}
	return checked, nil
}

// Source is the read-only page access surface shared by *File (the
// writer's live view) and *Snapshot (a pinned committed version). Tree
// navigation code works against a Source so the same structure can be read
// through either.
type Source interface {
	Get(id PageID) (*Page, error)
	Unpin(p *Page)
	PageSize() int
}

var (
	_ Source = (*File)(nil)
	_ Source = (*Snapshot)(nil)
)

// Path returns the underlying file path.
func (pf *File) Path() string { return pf.path }

// PoolCapacity returns the buffer-pool capacity in frames.
func (pf *File) PoolCapacity() int { return pf.capacity }
