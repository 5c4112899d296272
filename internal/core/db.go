// Package core implements the paper's primary contribution: NoK pattern
// matching (Algorithm 1) evaluated directly over the succinct physical
// storage scheme (Algorithm 2), with index-assisted starting-point location
// and structural joins between NoK partitions.
//
// A Database is a directory holding the paper's Figure-3 layout plus the
// commit record (epoch-named files carry a -<epoch> suffix):
//
//	tree.pg       the paged string representation (internal/stree)
//	values.dat    the value data file (internal/vstore)
//	tags.sym      the tag-name alphabet Σ (internal/symtab)
//	tagidx.pg     B+ tree: tag symbol ‖ Dewey → node position
//	validx.pg     B+ tree: hash(value) ‖ Dewey → node position
//	deweyidx.pg   B+ tree: Dewey → node position ‖ value offset
//	pathidx.pg    B+ tree: hash(root-to-node tag path) ‖ Dewey → node position
//	synopsis.bin  the statistics synopsis (internal/stats): per-tag node
//	              counts for the index-choice heuristic (§6.2) and the
//	              cost-based planner's input
//	treemap.vt    tree.pg's committed page table (see manifest.go)
//	MANIFEST      the commit record naming every file above
//
// Both multi-valued indexes put the Dewey ID *in the key*: dewey byte
// encodings compare in document order, so a prefix scan yields entries in
// document order for free, and the Dewey ID is what lets a match on a
// value-constrained descendant be translated to its NoK-root ancestor
// (strip k components, then look the ancestor up in the Dewey index).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"

	"nok/internal/btree"
	"nok/internal/dewey"
	"nok/internal/pager"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vfs"
	"nok/internal/vstore"
)

// Stable file names inside a database directory. tree.pg and values.dat
// keep fixed names (copy-on-write/append-only, protected by the versioned
// page table and manifest-length truncation); the rebuilt-on-update files
// are epoch-named (see manifest.go) and resolved through the MANIFEST.
const (
	fileTree   = "tree.pg"
	fileValues = "values.dat"
)

// NoValue is the sentinel value-offset for nodes without text content.
const NoValue = ^uint64(0)

// Options configure database creation.
type Options struct {
	// PageSize for the string tree. Defaults to pager.DefaultPageSize.
	PageSize int
	// PoolPages is the buffer-pool size per paged file. Defaults to 256.
	PoolPages int
	// ReservePct is the per-page update slack of the string tree (§4.2).
	// Defaults to 20 as in the paper's example.
	ReservePct int
	// FS is the file system the store operates on. Defaults to vfs.OS;
	// crash tests substitute internal/faultfs.
	FS vfs.FS
}

func (o *Options) withDefaults() Options {
	out := Options{PageSize: pager.DefaultPageSize, PoolPages: 256, ReservePct: 20, FS: vfs.OS}
	if o != nil {
		if o.PageSize != 0 {
			out.PageSize = o.PageSize
		}
		if o.PoolPages != 0 {
			out.PoolPages = o.PoolPages
		}
		if o.ReservePct != 0 {
			out.ReservePct = o.ReservePct
		}
		if o.FS != nil {
			out.FS = o.FS
		}
	}
	return out
}

// DB is an opened NoK database. It embeds the current committed Snapshot:
// read helpers called directly on the DB observe the latest commit, while
// concurrent readers pin their own view with Acquire (Query does this
// automatically). Mutations are serialized by wmu and never block readers.
type DB struct {
	*Snapshot // current committed view; commits swap it under wmu

	dir  string
	fsys vfs.FS
	// poolPages is the resolved buffer-pool size and indexPageSize the
	// index files' page size (LoadXML takes it from the options, Open from
	// the committed Dewey index); every epoch's index files use both.
	poolPages, indexPageSize int

	treeFile *pager.File

	// manifest is the commit record the DB was opened from (or last
	// committed). recovery reports what Open repaired.
	manifest *Manifest
	recovery RecoveryInfo
	// broken is set when an update failed after its commit point: the
	// in-memory state is unreliable and further mutations are refused.
	// (Failures before the commit point abort cleanly and do not set it.)
	broken bool

	// wmu serializes mutations (InsertFragmentBatch, DeleteSubtree) and
	// Close against each other. Readers never take it.
	wmu sync.Mutex

	// curv is the atomically published current snapshot; Acquire loads it
	// without any lock. closed gates new acquisitions during Close, and
	// viewsWG counts live snapshots so Close can wait for readers (and the
	// GC their final Release triggers) to drain.
	curv    atomic.Pointer[Snapshot]
	closed  atomic.Bool
	viewsWG sync.WaitGroup
}

// Open attaches to an existing database directory. If the directory holds
// leftovers of an interrupted transaction (uncommitted file tails, orphan
// epoch files or copy-on-write pages), Open first rolls the store back to
// its last committed state; Recovery reports what was done.
func Open(dir string, opts *Options) (*DB, error) {
	o := opts.withDefaults()
	m, info, err := recoverStore(o.FS, dir)
	if err != nil {
		return nil, err
	}
	v := &Snapshot{epoch: m.Epoch}
	db := &DB{Snapshot: v, dir: dir, fsys: o.FS, poolPages: o.PoolPages, manifest: m, recovery: info}
	v.db = db
	ok := false
	defer func() {
		if !ok {
			db.Close()
		}
	}()

	popts := func() *pager.Options { return &pager.Options{PoolPages: o.PoolPages, FS: o.FS} }
	if db.treeFile, err = pager.Open(db.path(roleTree), popts()); err != nil {
		return nil, fmt.Errorf("core: opening tree: %w", err)
	}
	// Install the committed page-table version from the treemap sidecar,
	// then pin it for the initial snapshot. Physical pages not referenced
	// by the committed table (crashed copy-on-write leftovers) are derived
	// into the free list here, never reused as content.
	side, err := vfs.ReadFile(o.FS, db.path(roleTreeMap))
	if err != nil {
		return nil, fmt.Errorf("core: reading tree page table: %w", err)
	}
	sideEpoch, err := db.treeFile.InstallVersion(side)
	if err != nil {
		return nil, fmt.Errorf("core: installing tree page table: %w", err)
	}
	if sideEpoch != m.Epoch {
		return nil, fmt.Errorf("core: tree page table is for epoch %d, manifest committed %d", sideEpoch, m.Epoch)
	}
	wtree, err := stree.Open(db.treeFile)
	if err != nil {
		return nil, err
	}
	psn, err := db.treeFile.Acquire()
	if err != nil {
		return nil, err
	}
	v.psn = psn
	v.Tree = wtree.Snapshot(psn)
	if v.Tags, err = symtab.LoadFS(o.FS, db.path(roleTags)); err != nil {
		return nil, fmt.Errorf("core: loading symbols: %w", err)
	}
	if v.Values, err = vstore.OpenFS(o.FS, db.path(roleValues)); err != nil {
		return nil, fmt.Errorf("core: opening values: %w", err)
	}
	if v.tagIdxFile, err = pager.Open(db.path(roleTagIdx), popts()); err != nil {
		return nil, fmt.Errorf("core: opening tag index: %w", err)
	}
	if v.TagIdx, err = btree.Open(v.tagIdxFile); err != nil {
		return nil, err
	}
	if v.valIdxFile, err = pager.Open(db.path(roleValIdx), popts()); err != nil {
		return nil, fmt.Errorf("core: opening value index: %w", err)
	}
	if v.ValIdx, err = btree.Open(v.valIdxFile); err != nil {
		return nil, err
	}
	if v.dewIdxFile, err = pager.Open(db.path(roleDewIdx), popts()); err != nil {
		return nil, fmt.Errorf("core: opening dewey index: %w", err)
	}
	if v.DeweyIdx, err = btree.Open(v.dewIdxFile); err != nil {
		return nil, err
	}
	db.indexPageSize = v.dewIdxFile.PageSize()
	if v.pathIdxFile, err = pager.Open(db.path(rolePathIdx), popts()); err != nil {
		return nil, fmt.Errorf("core: opening path index: %w", err)
	}
	if v.PathIdx, err = btree.Open(v.pathIdxFile); err != nil {
		return nil, err
	}
	rawSyn, err := vfs.ReadFile(o.FS, db.path(roleSynopsis))
	if err != nil {
		return nil, fmt.Errorf("core: reading synopsis: %w", err)
	}
	if v.syn, err = stats.Decode(rawSyn); err != nil {
		return nil, fmt.Errorf("core: loading synopsis: %w", err)
	}
	if v.syn.Epoch != m.Epoch {
		return nil, fmt.Errorf("core: synopsis is for epoch %d, manifest committed %d: %w", v.syn.Epoch, m.Epoch, stats.ErrCorrupt)
	}
	v.publish()
	ok = true
	return db, nil
}

// path returns the physical path of a manifest role.
func (db *DB) path(role string) string {
	return filepath.Join(db.dir, db.manifest.Files[role].Name)
}

// join resolves a physical file name inside the store directory.
func (db *DB) join(name string) string { return filepath.Join(db.dir, name) }

// Recovery reports what Open repaired to reach a committed state.
func (db *DB) Recovery() RecoveryInfo { return db.recovery }

// Manifest returns the commit record the DB is running on.
func (db *DB) Manifest() *Manifest { return db.manifest }

// Close releases the store. It stops new acquisitions, drops the DB's
// reference on the current snapshot, waits for in-flight readers (whose
// final Release garbage-collects their views), then closes the shared
// files. Closing twice is a no-op. Do not call Close from a goroutine
// that still holds an acquired Snapshot — that deadlocks the drain.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	var errs []error
	if cur := db.curv.Swap(nil); cur != nil {
		cur.Release()
		db.viewsWG.Wait()
	} else if db.Snapshot != nil {
		// Partially opened store: refcounting was never wired; close the
		// view's raw files directly.
		errs = append(errs, db.Snapshot.closeFiles()...)
		if db.Snapshot.psn != nil {
			db.Snapshot.psn.Release()
		}
	}
	if db.Values != nil {
		if err := db.Values.Close(); err != nil {
			errs = append(errs, fmt.Errorf("values: %w", err))
		}
	}
	if db.treeFile != nil {
		if err := db.treeFile.Close(); err != nil {
			errs = append(errs, fmt.Errorf("tree: %w", err))
		}
	}
	return errors.Join(errs...)
}

// Dir returns the database directory.
func (db *DB) Dir() string { return db.dir }

// NodeCount returns the number of element nodes (attributes included).
func (db *Snapshot) NodeCount() uint64 { return db.Tree.NodeCount() }

// TagCount returns how many nodes carry the tag name.
func (db *Snapshot) TagCount(name string) uint64 {
	sym, ok := db.Tags.Lookup(name)
	if !ok {
		return 0
	}
	return db.syn.TagCount(sym)
}

// ---- key encodings ----------------------------------------------------------

// encodePos packs a position into 6 bytes.
func encodePos(p stree.Pos) []byte {
	var b [6]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(p.Chain))
	binary.BigEndian.PutUint16(b[4:6], uint16(p.Off))
	return b[:]
}

func decodePos(b []byte) (stree.Pos, error) {
	if len(b) < 6 {
		return stree.Pos{}, errors.New("core: truncated position")
	}
	return stree.Pos{
		Chain: int(binary.BigEndian.Uint32(b[0:4])),
		Off:   int(binary.BigEndian.Uint16(b[4:6])),
	}, nil
}

// tagKey composes the tag-index key sym ‖ dewey.
func tagKey(sym symtab.Sym, id dewey.ID) []byte {
	key := make([]byte, 2, 2+len(id)*2)
	binary.BigEndian.PutUint16(key, uint16(sym))
	return append(key, id.Bytes()...)
}

// valKey composes the value-index key hash ‖ dewey.
func valKey(hash uint64, id dewey.ID) []byte {
	key := make([]byte, 8, 8+len(id)*2)
	binary.BigEndian.PutUint64(key, hash)
	return append(key, id.Bytes()...)
}

// deweyVal composes the Dewey-index value pos ‖ valueOffset.
func deweyVal(pos stree.Pos, valOff uint64) []byte {
	out := make([]byte, 14)
	copy(out, encodePos(pos))
	binary.BigEndian.PutUint64(out[6:], valOff)
	return out
}

// NodeAt returns the position and value offset recorded for a Dewey ID.
func (db *Snapshot) NodeAt(id dewey.ID) (pos stree.Pos, valOff uint64, ok bool, err error) {
	return db.nodeAtCounted(id, nil)
}

// nodeAtCounted is NodeAt attributing the Dewey-index descent to nc.
func (db *Snapshot) nodeAtCounted(id dewey.ID, nc *stree.NavCounters) (pos stree.Pos, valOff uint64, ok bool, err error) {
	v, found, err := db.DeweyIdx.GetCounted(id.Bytes(), btPages(nc))
	if err != nil || !found {
		return stree.Pos{}, 0, false, err
	}
	if len(v) != 14 {
		return stree.Pos{}, 0, false, fmt.Errorf("core: corrupt dewey index entry for %s", id)
	}
	pos, err = decodePos(v)
	if err != nil {
		return stree.Pos{}, 0, false, err
	}
	return pos, binary.BigEndian.Uint64(v[6:]), true, nil
}

// NodeValue returns the text value of the node with the given Dewey ID.
// ok is false when the node has no value (or no such node exists).
func (db *Snapshot) NodeValue(id dewey.ID) (string, bool, error) {
	return db.nodeValueCounted(id, nil)
}

// nodeValueCounted is NodeValue attributing the Dewey-index descent to nc.
func (db *Snapshot) nodeValueCounted(id dewey.ID, nc *stree.NavCounters) (string, bool, error) {
	_, valOff, found, err := db.nodeAtCounted(id, nc)
	if err != nil || !found || valOff == NoValue {
		return "", false, err
	}
	v, err := db.Values.Get(int64(valOff))
	if err != nil {
		return "", false, err
	}
	return string(v), true, nil
}

// IndexSizes reports the on-disk size in bytes of the string tree and the
// three B+ trees — the |tree|, |B+t|, |B+v|, |B+i| columns of Table 1.
func (db *DB) IndexSizes() (tree, tagIdx, valIdx, dewIdx int64) {
	sz := func(role string) int64 {
		fi, err := db.fsys.Stat(db.path(role))
		if err != nil {
			return 0
		}
		return fi.Size()
	}
	// The string representation's logical size is TokenBytes; the file
	// size includes page slack, so report the logical size for |tree| and
	// file sizes for the indexes (as the paper does: |tree| is 0.035MB for
	// a 1.2MB document, far below one page-rounded file).
	return int64(db.Tree.TokenBytes()), sz(roleTagIdx), sz(roleValIdx), sz(roleDewIdx)
}
