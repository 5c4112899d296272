package pager

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"nok/internal/obs"
)

// Versioned mode turns a pager file into a multi-version store: clients
// keep addressing pages by stable *logical* ids, but each committed epoch
// owns an immutable logical→physical page table. A mutation opens a
// copy-on-write transaction (BeginCOW), and the first write to any
// committed page relocates it to a fresh physical page — every page the
// transaction does not touch is shared, physically, with the previous
// epoch. Readers pin the version current when they start (Acquire) and
// resolve pages through that version's table for as long as they hold the
// pin, completely unaffected by concurrent transactions or later commits.
//
// Durability composes with the store-level MANIFEST commit: SealCOW
// flushes the transaction's pages and serializes its table into a sidecar
// blob; the caller makes that blob and its manifest record durable, then
// calls Publish to make the new version current in memory. A crash before
// the manifest write leaves the previous epoch fully intact on disk (its
// pages were never overwritten), so no undo journal is needed.
//
// Physical pages are reclaimed by reference counting: each version's
// table holds one reference on every physical page it maps. When the last
// version referencing a page is destroyed (it is no longer current and no
// snapshot pins it), the page joins the in-memory free list and is
// recycled by later transactions. The free list is derived, never
// persisted: InstallVersion computes it as "every physical page the
// committed table does not reference", which is also what sweeps pages
// orphaned by a crashed transaction at open time.

// Version sidecar serialization.
const (
	versionMagic = "NKVT1"
	// sidecar layout: magic[5] epoch[8] pageSize[4] metaLen[2] meta
	// numLogical[4] table[4*numLogical] crc32c[4]
	versionFixed = 5 + 8 + 4 + 2
)

// Process-wide versioning counters.
var (
	mCOWCopies  = obs.Default.Counter("nok_pager_cow_copies_total", "committed pages relocated by copy-on-write")
	mEpochsGCd  = obs.Default.Counter("nok_pager_epochs_gc_total", "page-table versions destroyed and their private pages reclaimed")
	mPhysRecyc  = obs.Default.Counter("nok_pager_pages_recycled_total", "physical pages recycled from destroyed versions")
	mSnapsTaken = obs.Default.Counter("nok_pager_snapshots_total", "version pins taken by readers")
)

// Version is one immutable committed page-table epoch.
type Version struct {
	epoch uint64
	// table maps logical id → physical id; index 0 is unused and holes
	// (freed logical ids) are InvalidPage.
	table []PageID
	meta  []byte
	// pins counts reader snapshots holding this version.
	pins int
	// current marks the version the writer publishes from; exactly one
	// version is current until Close.
	current bool
	dead    bool
}

// Epoch returns the epoch this version was committed at.
func (v *Version) Epoch() uint64 { return v.epoch }

// cowTx is an open copy-on-write transaction: a private, mutable copy of
// the current version's table.
type cowTx struct {
	epoch   uint64
	table   []PageID
	meta    []byte
	freeLog []PageID        // reusable logical ids (holes in table)
	fresh   map[PageID]bool // physical pages allocated by this tx
	sealed  bool
}

// verState is the versioning state hung off a File.
type verState struct {
	cur *Version
	tx  *cowTx
	// refs counts, per physical page, how many live version tables map it.
	refs map[PageID]uint32
	// freePhys are recyclable physical pages (referenced by no live
	// version and not owned by the open transaction).
	freePhys []PageID
	// freeLog are the current version's table holes, carried from commit
	// to commit so logical ids are reused.
	freeLog []PageID
	live    int // live (undestroyed) versions, including current
	// totalPins counts reader pins across all live versions (each
	// version's pins field tracks only its own).
	totalPins int
}

// resolveWriter maps a logical id through the writer's view (open tx, else
// current version). Caller holds mu.
func (vs *verState) resolveWriter(id PageID) (PageID, error) {
	table := vs.cur.table
	if vs.tx != nil {
		table = vs.tx.table
	}
	if id == InvalidPage || int(id) >= len(table) || table[id] == InvalidPage {
		return InvalidPage, fmt.Errorf("%w: logical %d", ErrPageOutOfRange, id)
	}
	return table[id], nil
}

// Versioned reports whether the file runs in versioned mode.
func (pf *File) Versioned() bool {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.vs != nil
}

// InitVersioning switches a freshly created, empty file into versioned
// mode at epoch 0 with an empty page table. The first BeginCOW/Publish
// cycle commits the initial contents.
func (pf *File) InitVersioning() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return ErrClosed
	}
	if pf.vs != nil {
		return fmt.Errorf("pager: %s already versioned", pf.path)
	}
	if pf.numPages != 0 {
		return fmt.Errorf("pager: InitVersioning requires a fresh empty file")
	}
	pf.vs = &verState{
		cur:  &Version{epoch: 0, table: []PageID{InvalidPage}, current: true},
		refs: make(map[PageID]uint32),
		live: 1,
	}
	return nil
}

// InstallVersion switches a freshly opened file into versioned mode from a
// serialized sidecar (produced by SealCOW). It rebuilds the physical
// reference counts and derives the free list as every allocated physical
// page the table does not reference — which sweeps pages orphaned by a
// transaction that crashed before its manifest commit.
func (pf *File) InstallVersion(data []byte) (uint64, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return 0, ErrClosed
	}
	if pf.vs != nil {
		return 0, fmt.Errorf("pager: %s already versioned", pf.path)
	}
	if len(data) < versionFixed+4+4 || string(data[:5]) != versionMagic {
		return 0, fmt.Errorf("pager: %s: bad version table sidecar", pf.path)
	}
	// The header of a versioned file is written once at creation and never
	// rewritten (an in-place rewrite could be torn by a crash), so its
	// recorded page count is stale. Derive the real count from the file
	// size; a torn partial page at the tail rounds away — committed pages
	// are always fully written before their table commits.
	fi, err := pf.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("pager: %s: stat: %w", pf.path, err)
	}
	if n := fi.Size() / int64(pf.physSize); n > 0 {
		pf.numPages = uint32(n - 1)
	} else {
		pf.numPages = 0
	}
	body, crcb := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.BigEndian.Uint32(crcb) {
		return 0, fmt.Errorf("%w: version table sidecar of %s", ErrChecksum, pf.path)
	}
	epoch := binary.BigEndian.Uint64(body[5:13])
	if ps := int(binary.BigEndian.Uint32(body[13:17])); ps != pf.pageSize {
		return 0, fmt.Errorf("pager: %s: sidecar page size %d, file has %d", pf.path, ps, pf.pageSize)
	}
	metaLen := int(binary.BigEndian.Uint16(body[17:19]))
	if metaLen > MaxMetaLen || versionFixed+metaLen+4 > len(body) {
		return 0, fmt.Errorf("pager: %s: corrupt sidecar meta length %d", pf.path, metaLen)
	}
	meta := append([]byte(nil), body[versionFixed:versionFixed+metaLen]...)
	rest := body[versionFixed+metaLen:]
	numLogical := int(binary.BigEndian.Uint32(rest[:4]))
	rest = rest[4:]
	if len(rest) != 4*numLogical {
		return 0, fmt.Errorf("pager: %s: sidecar table truncated (%d entries, %d bytes)", pf.path, numLogical, len(rest))
	}
	table := make([]PageID, numLogical+1)
	vs := &verState{refs: make(map[PageID]uint32), live: 1}
	for i := 1; i <= numLogical; i++ {
		phys := PageID(binary.BigEndian.Uint32(rest[4*(i-1):]))
		if uint32(phys) > pf.numPages {
			return 0, fmt.Errorf("pager: %s: sidecar maps logical %d to physical %d beyond file end %d", pf.path, i, phys, pf.numPages)
		}
		table[i] = phys
		if phys == InvalidPage {
			vs.freeLog = append(vs.freeLog, PageID(i))
			continue
		}
		if vs.refs[phys] != 0 {
			return 0, fmt.Errorf("pager: %s: sidecar maps physical %d twice", pf.path, phys)
		}
		vs.refs[phys] = 1
	}
	for phys := PageID(1); uint32(phys) <= pf.numPages; phys++ {
		if vs.refs[phys] == 0 {
			vs.freePhys = append(vs.freePhys, phys)
		}
	}
	vs.cur = &Version{epoch: epoch, table: table, meta: meta, current: true}
	pf.vs = vs
	return epoch, nil
}

// BeginCOW opens a copy-on-write transaction that will commit as epoch.
// Only one transaction may be open at a time.
func (pf *File) BeginCOW(epoch uint64) error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return ErrClosed
	}
	if pf.vs == nil {
		return fmt.Errorf("pager: %s is not versioned", pf.path)
	}
	if pf.vs.tx != nil {
		return ErrInTx
	}
	pf.vs.tx = &cowTx{
		epoch:   epoch,
		table:   append([]PageID(nil), pf.vs.cur.table...),
		meta:    append([]byte(nil), pf.vs.cur.meta...),
		freeLog: append([]PageID(nil), pf.vs.freeLog...),
		fresh:   make(map[PageID]bool),
	}
	return nil
}

// InCOW reports whether a copy-on-write transaction is open.
func (pf *File) InCOW() bool {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	return pf.vs != nil && pf.vs.tx != nil
}

// purgeFrame drops the pool frame for physical page id, if any and
// unpinned. Returns false if a pinned frame is in the way. Caller holds mu.
func (pf *File) purgeFrame(id PageID) bool {
	p, ok := pf.pool[id]
	if !ok {
		return true
	}
	if p.pins > 0 {
		return false
	}
	pf.lruRemove(p)
	delete(pf.pool, id)
	return true
}

// allocPhysLocked produces a writable physical page id: a recycled one
// from the free list when possible, a fresh one extending the file
// otherwise. Recycling purges any stale pool frame so the physical page
// can be rebound to a new logical id. Caller holds mu.
func (pf *File) allocPhysLocked() (PageID, error) {
	vs := pf.vs
	for i, phys := range vs.freePhys {
		if !pf.purgeFrame(phys) {
			continue // a reader still holds the stale frame; try another
		}
		vs.freePhys = append(vs.freePhys[:i], vs.freePhys[i+1:]...)
		return phys, nil
	}
	pf.numPages++
	pf.headerDirty = true
	return PageID(pf.numPages), nil
}

// getMutLocked implements GetMut for versioned files. Caller holds mu.
func (pf *File) getMutLocked(id PageID) (*Page, error) {
	tx := pf.vs.tx
	if tx == nil {
		return nil, fmt.Errorf("pager: GetMut on versioned file outside a transaction")
	}
	if id == InvalidPage || int(id) >= len(tx.table) || tx.table[id] == InvalidPage {
		return nil, fmt.Errorf("%w: logical %d", ErrPageOutOfRange, id)
	}
	phys := tx.table[id]
	if tx.fresh[phys] {
		return pf.frame(phys, id, true)
	}
	// First write of a committed page in this tx: relocate it.
	src, err := pf.frame(phys, id, true)
	if err != nil {
		return nil, err
	}
	newPhys, err := pf.allocPhysLocked()
	if err != nil {
		pf.unpin(src)
		return nil, err
	}
	dst, err := pf.frame(newPhys, id, false)
	if err != nil {
		pf.unpin(src)
		return nil, err
	}
	copy(dst.data, src.data)
	pf.unpin(src)
	dst.dirty = true
	tx.table[id] = newPhys
	tx.fresh[newPhys] = true
	mCOWCopies.Inc()
	return dst, nil
}

// allocateVersionedLocked implements Allocate for versioned files: a new
// logical id (reusing holes) bound to a fresh physical page. Caller holds
// mu.
func (pf *File) allocateVersionedLocked() (*Page, error) {
	tx := pf.vs.tx
	if tx == nil {
		return nil, fmt.Errorf("pager: Allocate on versioned file outside a transaction")
	}
	phys, err := pf.allocPhysLocked()
	if err != nil {
		return nil, err
	}
	var logical PageID
	if n := len(tx.freeLog); n > 0 {
		logical = tx.freeLog[n-1]
		tx.freeLog = tx.freeLog[:n-1]
		tx.table[logical] = phys
	} else {
		logical = PageID(len(tx.table))
		tx.table = append(tx.table, phys)
	}
	tx.fresh[phys] = true
	p, err := pf.frame(phys, logical, false)
	if err != nil {
		return nil, err
	}
	p.dirty = true
	pf.stats.allocs.Add(1)
	mAllocs.Inc()
	return p, nil
}

// freeVersionedLocked implements Free for versioned files: the logical id
// leaves the transaction's table. A physical page allocated by this very
// transaction is recycled immediately; a committed page stays, still
// referenced by older versions, until the last version mapping it dies.
// Caller holds mu.
func (pf *File) freeVersionedLocked(id PageID) error {
	tx := pf.vs.tx
	if tx == nil {
		return fmt.Errorf("pager: Free on versioned file outside a transaction")
	}
	if id == InvalidPage || int(id) >= len(tx.table) || tx.table[id] == InvalidPage {
		return fmt.Errorf("%w: logical %d", ErrPageOutOfRange, id)
	}
	phys := tx.table[id]
	if p, ok := pf.pool[phys]; ok && p.pins > 0 && tx.fresh[phys] {
		return fmt.Errorf("pager: freeing pinned page %d", id)
	}
	tx.table[id] = InvalidPage
	tx.freeLog = append(tx.freeLog, id)
	if tx.fresh[phys] {
		delete(tx.fresh, phys)
		if p, ok := pf.pool[phys]; ok {
			p.dirty = false // never written, content is garbage now
		}
		if pf.purgeFrame(phys) {
			pf.vs.freePhys = append(pf.vs.freePhys, phys)
		}
	}
	pf.stats.frees.Add(1)
	mFrees.Inc()
	return nil
}

// SealCOW makes the open transaction's pages durable (flush + sync) and
// returns the serialized version-table sidecar for the caller to commit
// through its manifest. After SealCOW the transaction accepts no more
// writes; the caller finishes with Publish (commit) or AbortCOW (roll
// back, e.g. when the manifest write failed).
func (pf *File) SealCOW() ([]byte, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil, ErrClosed
	}
	if pf.vs == nil || pf.vs.tx == nil {
		return nil, fmt.Errorf("pager: SealCOW without an open transaction")
	}
	if err := pf.flushLocked(); err != nil {
		return nil, err
	}
	tx := pf.vs.tx
	tx.sealed = true
	numLogical := len(tx.table) - 1
	out := make([]byte, 0, versionFixed+len(tx.meta)+4+4*numLogical+4)
	out = append(out, versionMagic...)
	out = binary.BigEndian.AppendUint64(out, tx.epoch)
	out = binary.BigEndian.AppendUint32(out, uint32(pf.pageSize))
	out = binary.BigEndian.AppendUint16(out, uint16(len(tx.meta)))
	out = append(out, tx.meta...)
	out = binary.BigEndian.AppendUint32(out, uint32(numLogical))
	for _, phys := range tx.table[1:] {
		out = binary.BigEndian.AppendUint32(out, uint32(phys))
	}
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
	return out, nil
}

// Publish atomically makes the sealed transaction the current version.
// The caller must have durably committed the sidecar returned by SealCOW
// first; from this point new readers resolve through the new table. The
// previous version is destroyed as soon as its last pin is released.
func (pf *File) Publish() (*Version, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil, ErrClosed
	}
	vs := pf.vs
	if vs == nil || vs.tx == nil || !vs.tx.sealed {
		return nil, fmt.Errorf("pager: Publish without a sealed transaction")
	}
	tx := vs.tx
	next := &Version{epoch: tx.epoch, table: tx.table, meta: tx.meta, current: true}
	for _, phys := range next.table[1:] {
		if phys != InvalidPage {
			vs.refs[phys]++
		}
	}
	vs.freeLog = tx.freeLog
	vs.live++
	prev := vs.cur
	vs.cur = next
	vs.tx = nil
	prev.current = false
	pf.maybeDestroy(prev)
	return next, nil
}

// AbortCOW rolls the open transaction back: its private physical pages are
// recycled and the current version stays untouched. Safe to call whether
// or not the transaction was sealed.
func (pf *File) AbortCOW() error {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.vs == nil || pf.vs.tx == nil {
		return fmt.Errorf("pager: AbortCOW without an open transaction")
	}
	for phys := range pf.vs.tx.fresh {
		if p, ok := pf.pool[phys]; ok {
			p.dirty = false
		}
		if pf.purgeFrame(phys) {
			pf.vs.freePhys = append(pf.vs.freePhys, phys)
		}
		// A still-pinned frame leaks its physical page until reopen —
		// callers abort only after their own pins are released.
	}
	pf.vs.tx = nil
	return nil
}

// maybeDestroy reclaims a version once it is neither current nor pinned:
// every physical page whose last reference it held joins the free list.
// Caller holds mu.
func (pf *File) maybeDestroy(v *Version) {
	if v.current || v.pins > 0 || v.dead {
		return
	}
	v.dead = true
	pf.vs.live--
	for _, phys := range v.table[1:] {
		if phys == InvalidPage {
			continue
		}
		pf.vs.refs[phys]--
		if pf.vs.refs[phys] == 0 {
			delete(pf.vs.refs, phys)
			pf.purgeFrame(phys)
			pf.vs.freePhys = append(pf.vs.freePhys, phys)
			mPhysRecyc.Inc()
		}
	}
	mEpochsGCd.Inc()
}

// Snapshot is a pinned, immutable view of one committed version. Get
// resolves logical ids through the pinned table, so pages relocated or
// freed by later epochs keep reading back exactly as committed. Release
// the snapshot when done; the version's private pages are reclaimed when
// the last pin drops (if a newer epoch has been published).
type Snapshot struct {
	pf *File
	v  *Version
}

// Acquire pins the current version and returns a snapshot resolving
// through it.
func (pf *File) Acquire() (*Snapshot, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil, ErrClosed
	}
	if pf.vs == nil {
		return nil, fmt.Errorf("pager: %s is not versioned", pf.path)
	}
	pf.vs.cur.pins++
	pf.vs.totalPins++
	mSnapsTaken.Inc()
	return &Snapshot{pf: pf, v: pf.vs.cur}, nil
}

// Get returns logical page id pinned, resolved through the snapshot's
// version. The caller must Unpin it.
func (s *Snapshot) Get(id PageID) (*Page, error) {
	pf := s.pf
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return nil, ErrClosed
	}
	if id == InvalidPage || int(id) >= len(s.v.table) || s.v.table[id] == InvalidPage {
		return nil, fmt.Errorf("%w: logical %d at epoch %d", ErrPageOutOfRange, id, s.v.epoch)
	}
	return pf.frame(s.v.table[id], id, true)
}

// Unpin releases one pin on p.
func (s *Snapshot) Unpin(p *Page) { s.pf.Unpin(p) }

// PageSize returns the underlying file's page size.
func (s *Snapshot) PageSize() int { return s.pf.pageSize }

// Meta returns a copy of the snapshot version's client meta area.
func (s *Snapshot) Meta() []byte { return append([]byte(nil), s.v.meta...) }

// Epoch returns the epoch of the pinned version.
func (s *Snapshot) Epoch() uint64 { return s.v.epoch }

// Release drops the snapshot's pin. The version is destroyed (pages
// reclaimed) when it is no longer current and this was the last pin.
// Release is idempotent per snapshot only in the sense that callers must
// not call it twice.
func (s *Snapshot) Release() {
	pf := s.pf
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if s.v.pins <= 0 {
		panic("pager: snapshot released twice")
	}
	s.v.pins--
	pf.vs.totalPins--
	if !pf.closed {
		pf.maybeDestroy(s.v)
	}
}

// VersionStats describes the versioning state for observability.
type VersionStats struct {
	Epoch        uint64 // current committed epoch
	LiveVersions int    // versions not yet destroyed (including current)
	PinnedSnaps  int    // reader pins across all live versions, current included
	NumLogical   int    // logical pages in the current table
	NumPhysical  int    // physical pages ever allocated in the file
	FreePhysical int    // physical pages awaiting recycling
	TxOpen       bool   // a copy-on-write transaction is open
}

// VersionInfo returns a snapshot of the versioning state; zero-valued for
// plain files.
func (pf *File) VersionInfo() VersionStats {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.vs == nil {
		return VersionStats{}
	}
	st := VersionStats{
		Epoch:        pf.vs.cur.epoch,
		LiveVersions: pf.vs.live,
		NumLogical:   len(pf.vs.cur.table) - 1 - len(pf.vs.freeLog),
		NumPhysical:  int(pf.numPages),
		FreePhysical: len(pf.vs.freePhys),
		TxOpen:       pf.vs.tx != nil,
	}
	st.PinnedSnaps = pf.vs.totalPins
	return st
}

// OrphanPhysicalPages returns the physical pages allocated in the file but
// referenced by no live version — debris a crashed transaction left
// behind, awaiting recycling. Meaningful right after open, before any new
// transaction runs.
func (pf *File) OrphanPhysicalPages() int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.vs == nil {
		return 0
	}
	return len(pf.vs.freePhys)
}

// UnaccountedPhysicalPages returns the physical pages that are neither
// referenced by a live version, nor on the free list, nor owned by the
// open transaction — zero in a healthy file. A page can get stuck this
// way when it is freed while a reader still pins its pool frame; it stays
// lost until the next reopen re-derives the free list from scratch.
func (pf *File) UnaccountedPhysicalPages() int {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.vs == nil {
		return 0
	}
	accounted := len(pf.vs.refs) + len(pf.vs.freePhys)
	if pf.vs.tx != nil {
		accounted += len(pf.vs.tx.fresh)
	}
	if n := int(pf.numPages) - accounted; n > 0 {
		return n
	}
	return 0
}

// VerifyVersionPages reads every physical page referenced by the current
// version's table (plus the file header) directly from disk and checks its
// checksum trailer. Unreferenced physical pages are skipped: garbage from
// in-flight or crashed transactions is expected there and carries no
// committed data. Reports damage through report; returns pages examined.
func (pf *File) VerifyVersionPages(report func(id PageID, err error)) (int, error) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if pf.closed {
		return 0, ErrClosed
	}
	if pf.vs == nil {
		return 0, fmt.Errorf("pager: %s is not versioned", pf.path)
	}
	payload := make([]byte, pf.pageSize)
	checked := 1
	if err := pf.readPhysical(0, payload); err != nil {
		report(0, err)
	} else if err := pf.verifyTrailerSlack(0); err != nil {
		report(0, err)
	}
	for logical, phys := range pf.vs.cur.table {
		if logical == 0 || phys == InvalidPage {
			continue
		}
		if err := pf.readPhysical(phys, payload); err != nil {
			report(PageID(logical), err)
		} else if err := pf.verifyTrailerSlack(phys); err != nil {
			report(PageID(logical), err)
		}
		checked++
	}
	return checked, nil
}

// verifyTrailerSlack checks that the reserved bytes after a page's 4-byte
// checksum trailer are zero, as writePhysical always leaves them. A
// referenced page never legitimately carries nonzero slack, so anything
// else is bit rot the payload checksum cannot see. Caller holds mu.
func (pf *File) verifyTrailerSlack(phys PageID) error {
	slack := pf.physSize - pf.pageSize - 4
	if slack <= 0 {
		return nil
	}
	buf := make([]byte, slack)
	n, err := pf.f.ReadAt(buf, pf.pageOffset(phys)+int64(pf.pageSize)+4)
	if err != nil && err != io.EOF {
		return fmt.Errorf("pager: reading page %d trailer: %w", phys, err)
	}
	for _, b := range buf[:n] {
		if b != 0 {
			return fmt.Errorf("pager: page %d: reserved trailer bytes are not zero", phys)
		}
	}
	return nil
}
