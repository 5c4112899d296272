package core

// snapshot.go — MVCC snapshot views.
//
// A Snapshot is one committed epoch of the store, immutable for its whole
// lifetime: the string tree pinned to a copy-on-write page-table version
// (internal/pager), the epoch's symbol table, statistics synopsis and B+
// tree index files, and the shared append-only value store. Every query evaluates
// against exactly one Snapshot, so writers never block readers — a commit
// builds the next Snapshot off to the side and publishes it with one
// atomic pointer swap.
//
// Lifetime is reference-counted. A live Snapshot starts with one reference
// held by the DB for being "current"; Acquire adds one per in-flight
// reader. When a commit supersedes a view the DB drops its reference, and
// whichever Release brings the count to zero destroys the view: its index
// files are closed, the pinned page-table version is released (recycling
// the epoch's private tree pages), and its superseded epoch-named files
// are deleted from the directory.

import (
	"errors"
	"sync"
	"sync/atomic"

	"nok/internal/btree"
	"nok/internal/obs"
	"nok/internal/pager"
	"nok/internal/pattern"
	"nok/internal/planner"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vstore"
)

// ErrClosed is returned by operations on a closed DB.
var ErrClosed = errors.New("core: store is closed")

// ErrShardUnavailable is the sentinel for queries that could not be
// answered completely because a shard was unreachable and the caller did
// not opt into degraded partial results. The scatter-gather executor
// (internal/shard) wraps it in a typed error naming the missing shards;
// the HTTP server maps it to 503. Match it with errors.Is.
var ErrShardUnavailable = errors.New("core: shard unavailable")

// Snapshot lifecycle counters, exposed through the default obs registry.
var (
	mSnapAcquires  = obs.Default.Counter("nok_mvcc_snapshot_acquires_total", "snapshot references taken by readers")
	mSnapDestroyed = obs.Default.Counter("nok_mvcc_snapshots_destroyed_total", "superseded snapshots garbage-collected")
	mSnapFilesGCd  = obs.Default.Counter("nok_mvcc_epoch_files_deleted_total", "superseded epoch-named files deleted by snapshot GC")
)

// Snapshot is an immutable view of the store at one committed epoch.
// All read-side evaluation (queries, pattern matching, planning) runs
// against a Snapshot; the DB embeds the current one.
type Snapshot struct {
	epoch uint64

	// Tree is a read-only view of the string representation over the
	// pinned page-table version psn.
	Tree   *stree.Store
	Tags   *symtab.Table
	Values *vstore.Store // shared with the DB and all other snapshots

	TagIdx   *btree.Tree
	ValIdx   *btree.Tree
	DeweyIdx *btree.Tree
	// PathIdx is the §8 path-index extension: hash(root-to-node tag path)
	// ‖ Dewey → position. See internal/core/pathidx.go.
	PathIdx *btree.Tree

	tagIdxFile, valIdxFile, dewIdxFile, pathIdxFile *pager.File

	// syn is the statistics synopsis committed at this epoch: the §6.2
	// per-tag counts and the cost-based planner's input. Set before the
	// view is published and never written afterwards.
	syn       *stats.Synopsis
	planMu    sync.Mutex
	planCache map[string]*planner.Plan

	db  *DB
	psn *pager.Snapshot // pinned tree page-table version (nil only mid-build)

	// refs counts the DB's "current" reference plus one per reader.
	// It starts at 1 when the view is published and the view is destroyed
	// when it reaches zero. A negative or zero count means the view is
	// dead and must not be acquired.
	refs atomic.Int64

	// obsolete lists the previous-epoch files this view superseded was
	// built from — set on the *retiring* view by the commit that replaces
	// it, deleted when the retired view is destroyed (no reader can need
	// them after that).
	obsolete []string
}

// Epoch returns the committed epoch this snapshot observes.
func (v *Snapshot) Epoch() uint64 { return v.epoch }

// tryAcquire adds a reference unless the view is already dead.
func (v *Snapshot) tryAcquire() bool {
	for {
		r := v.refs.Load()
		if r <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops one reference; the caller must not touch the snapshot
// afterwards. The final release destroys the view.
func (v *Snapshot) Release() {
	r := v.refs.Add(-1)
	if r == 0 {
		v.destroy()
	} else if r < 0 {
		panic("core: Snapshot released more often than acquired")
	}
}

// destroy tears the view down: index files closed, the pinned page-table
// version released (its private tree pages become reusable), superseded
// epoch files deleted. Runs exactly once, possibly on a reader goroutine;
// errors are best-effort because no caller can act on them.
func (v *Snapshot) destroy() {
	for _, pf := range []*pager.File{v.tagIdxFile, v.valIdxFile, v.dewIdxFile, v.pathIdxFile} {
		if pf != nil {
			_ = pf.Close()
		}
	}
	if v.psn != nil {
		v.psn.Release()
	}
	for _, name := range v.obsolete {
		if v.db.fsys.Remove(v.db.join(name)) == nil {
			mSnapFilesGCd.Inc()
		}
	}
	mSnapDestroyed.Inc()
	v.db.viewsWG.Done()
}

// closeFiles closes the view's index files directly, for tearing down a
// partially opened store whose refcounting was never wired.
func (v *Snapshot) closeFiles() []error {
	var errs []error
	for _, pf := range []*pager.File{v.tagIdxFile, v.valIdxFile, v.dewIdxFile, v.pathIdxFile} {
		if pf != nil {
			if err := pf.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errs
}

// publish wires the view's lifecycle (one "current" reference, one GC
// wait-group unit) and installs it as the DB's current snapshot.
func (v *Snapshot) publish() {
	v.refs.Store(1)
	v.db.viewsWG.Add(1)
	v.db.curv.Store(v)
}

// Acquire pins the current committed snapshot for reading. The caller
// must Release it. Fails with ErrClosed once Close has begun.
func (db *DB) Acquire() (*Snapshot, error) {
	for {
		if db.closed.Load() {
			return nil, ErrClosed
		}
		v := db.curv.Load()
		if v == nil {
			return nil, ErrClosed
		}
		if v.tryAcquire() {
			// Close may have started between the load and the acquire;
			// re-check so Close's drain is not raced past.
			if db.closed.Load() {
				v.Release()
				return nil, ErrClosed
			}
			mSnapAcquires.Inc()
			return v, nil
		}
		// The view died between load and acquire (a commit retired it and
		// its readers drained); loop to pick up the new current view.
	}
}

// Query pins the current snapshot for the duration of one evaluation.
func (db *DB) Query(expr string, opts *QueryOptions) ([]Match, *QueryStats, error) {
	v, err := db.Acquire()
	if err != nil {
		return nil, nil, err
	}
	defer v.Release()
	return v.Query(expr, opts)
}

// QueryPattern pins the current snapshot for the duration of one
// evaluation of an already parsed pattern.
func (db *DB) QueryPattern(t *pattern.Tree, opts *QueryOptions) ([]Match, *QueryStats, error) {
	v, err := db.Acquire()
	if err != nil {
		return nil, nil, err
	}
	defer v.Release()
	return v.QueryPattern(t, opts)
}

// MVCCInfo reports the MVCC machinery's state: the committed epoch, the
// pager's live page-table versions, and the physical-page accounting.
type MVCCInfo struct {
	Epoch        uint64
	LiveVersions int // page-table versions still referenced (current + pinned)
	PinnedSnaps  int // reader pins across all live versions
	NumLogical   int // logical tree pages at the current epoch
	NumPhysical  int // physical pages ever allocated in tree.pg
	FreePhysical int // physical pages awaiting recycling
	OrphanPages  int // physicals neither live nor free (0 in a healthy store)
}

// MVCCInfo summarizes the store's version state.
func (db *DB) MVCCInfo() MVCCInfo {
	vi := db.treeFile.VersionInfo()
	return MVCCInfo{
		Epoch:        vi.Epoch,
		LiveVersions: vi.LiveVersions,
		PinnedSnaps:  vi.PinnedSnaps,
		NumLogical:   vi.NumLogical,
		NumPhysical:  vi.NumPhysical,
		FreePhysical: vi.FreePhysical,
		OrphanPages:  db.treeFile.UnaccountedPhysicalPages(),
	}
}
