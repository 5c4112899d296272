package core

import (
	"encoding/binary"
	"fmt"

	"nok/internal/btree"
	"nok/internal/dewey"
	"nok/internal/obs"
	"nok/internal/pager"
	"nok/internal/vstore"
)

// Store-verification counters, exposed through the default obs registry.
var (
	mVerifyRuns     = obs.Default.Counter("nok_store_verify_runs_total", "Verify invocations")
	mVerifyFailures = obs.Default.Counter("nok_store_verify_failures_total", "Verify invocations that found at least one issue")
	mVerifyIssues   = obs.Default.Counter("nok_store_verify_issues_total", "individual issues reported by Verify")
)

// VerifyIssue is one problem Verify found, tagged with the store component
// it belongs to.
type VerifyIssue struct {
	Component string // "manifest", "tree", "tagidx", "validx", "deweyidx", "pathidx", "values", "stats", "cross"
	Err       error
}

func (i VerifyIssue) String() string { return i.Component + ": " + i.Err.Error() }

// VerifyResult summarizes one Verify run.
type VerifyResult struct {
	Deep bool
	// PagesChecked counts physical pages whose checksum trailer was read
	// (deep only).
	PagesChecked int
	// EntriesChecked counts Dewey-index entries cross-referenced against
	// the string tree and value file (deep only).
	EntriesChecked uint64
	// RecordsChecked counts value records scanned (deep only).
	RecordsChecked int
	Issues         []VerifyIssue
}

// OK reports whether the store passed.
func (r *VerifyResult) OK() bool { return len(r.Issues) == 0 }

// Verify checks the store's integrity and returns everything it found
// wrong (never an error: problems it hits while checking are themselves
// findings).
//
// The quick form checks the commit manifest against the files on disk
// (presence and committed sizes) and the cheap cross-component invariants:
// the four index key counts, the synopsis totals, and the node count all
// describing the same document.
//
// With deep set it additionally reads every physical page of the five
// paged files and validates its checksum trailer, re-derives the string
// tree's balanced-parenthesis and (st,lo,hi) header invariants, walks all
// four B+ tree leaf chains, scans every value record, recomputes whole-file
// checksums against the manifest, and resolves every Dewey-index entry
// back to a live tree position and value record.
func (db *DB) Verify(deep bool) *VerifyResult {
	mVerifyRuns.Inc()
	r := &VerifyResult{Deep: deep}
	emit := func(component string, err error) {
		r.Issues = append(r.Issues, VerifyIssue{Component: component, Err: err})
	}
	defer func() {
		mVerifyIssues.Add(int64(len(r.Issues)))
		if !r.OK() {
			mVerifyFailures.Inc()
		}
	}()

	if db.broken {
		emit("cross", fmt.Errorf("store is in a failed update transaction; close and reopen to roll back"))
		return r
	}

	db.verifyManifest(deep, emit)
	db.verifyCounts(emit)
	if deep {
		db.verifyPages(r, emit)
		db.verifyTree(emit)
		db.verifyIndexes(emit)
		db.verifyValues(r, emit)
		db.verifyDeweyEntries(r, emit)
	}
	return r
}

// verifyManifest checks each committed file's presence and size, and (deep)
// recomputes its checksum against the manifest record. The store must be
// quiescent — a flush since the last commit would legitimately change
// tree.pg, but Verify runs on opened-and-unmodified or freshly committed
// stores, where disk state is exactly what the manifest recorded.
func (db *DB) verifyManifest(deep bool, emit func(string, error)) {
	if db.manifest == nil {
		emit("manifest", fmt.Errorf("store has no manifest loaded"))
		return
	}
	for _, role := range allRoles {
		rec, ok := db.manifest.Files[role]
		if !ok {
			emit("manifest", fmt.Errorf("role %s missing from manifest", role))
			continue
		}
		path := db.path(role)
		fi, err := db.fsys.Stat(path)
		if err != nil {
			emit("manifest", fmt.Errorf("role %s: %w", role, err))
			continue
		}
		if fi.Size() != rec.Size {
			emit("manifest", fmt.Errorf("role %s (%s): size %d, manifest committed %d", role, rec.Name, fi.Size(), rec.Size))
			continue
		}
		if deep && role != roleTree {
			// tree.pg carries no whole-file CRC: its free pages hold stale
			// bytes by design (copy-on-write). Deep verification covers it
			// through the per-page checksum trailers of every page the
			// committed page table references (verifyPages).
			_, sum, err := fileChecksum(db.fsys, path)
			if err != nil {
				emit("manifest", fmt.Errorf("role %s: checksumming: %w", role, err))
			} else if sum != rec.CRC32C {
				emit("manifest", fmt.Errorf("role %s (%s): crc32c %08x, manifest committed %08x", role, rec.Name, sum, rec.CRC32C))
			}
		}
	}
}

// verifyCounts checks the cheap cross-component invariants: every index
// and the statistics synopsis describe the same number of nodes.
func (db *DB) verifyCounts(emit func(string, error)) {
	nodes := db.Tree.NodeCount()
	for _, idx := range []struct {
		name string
		t    *btree.Tree
	}{
		{"tagidx", db.TagIdx},
		{"deweyidx", db.DeweyIdx},
		{"pathidx", db.PathIdx},
	} {
		if c := idx.t.Count(); c != nodes {
			emit("cross", fmt.Errorf("%s holds %d keys, tree holds %d nodes", idx.name, c, nodes))
		}
	}
	// The value index has one key per node *with* a value, so it is only
	// bounded by the node count.
	if c := db.ValIdx.Count(); c > nodes {
		emit("cross", fmt.Errorf("validx holds %d keys, more than the %d nodes", c, nodes))
	}
	if db.syn.TotalNodes != nodes {
		emit("stats", fmt.Errorf("synopsis total %d, tree holds %d nodes", db.syn.TotalNodes, nodes))
	}
	var sum uint64
	for _, ts := range db.syn.Tags {
		sum += ts.Count
	}
	if sum != nodes {
		emit("stats", fmt.Errorf("synopsis per-tag counts sum to %d, tree holds %d nodes", sum, nodes))
	}
}

// verifyPages checks the checksum trailer of every page the committed
// tree page table references, and of every physical page in the four
// index files.
func (db *DB) verifyPages(r *VerifyResult, emit func(string, error)) {
	n, err := db.treeFile.VerifyVersionPages(func(id pager.PageID, perr error) {
		emit("tree", perr)
	})
	if err != nil {
		emit("tree", err)
	}
	r.PagesChecked += n
	for _, f := range []struct {
		name string
		pf   *pager.File
	}{
		{"tagidx", db.tagIdxFile},
		{"validx", db.valIdxFile},
		{"deweyidx", db.dewIdxFile},
		{"pathidx", db.pathIdxFile},
	} {
		name := f.name
		n, err := f.pf.VerifyPages(func(id pager.PageID, perr error) {
			emit(name, perr)
		})
		if err != nil {
			emit(name, err)
		}
		r.PagesChecked += n
	}
}

// verifyTree re-derives the string representation's invariants.
func (db *DB) verifyTree(emit func(string, error)) {
	if _, err := db.Tree.Verify(func(verr error) { emit("tree", verr) }); err != nil {
		emit("tree", fmt.Errorf("verification aborted: %w", err))
	}
}

// verifyIndexes walks all four B+ tree leaf chains.
func (db *DB) verifyIndexes(emit func(string, error)) {
	for _, idx := range []struct {
		name string
		t    *btree.Tree
	}{
		{"tagidx", db.TagIdx},
		{"validx", db.ValIdx},
		{"deweyidx", db.DeweyIdx},
		{"pathidx", db.PathIdx},
	} {
		name := idx.name
		if _, err := idx.t.Verify(func(verr error) { emit(name, verr) }); err != nil {
			emit(name, fmt.Errorf("verification aborted: %w", err))
		}
	}
}

// verifyValues scans every value record (the scan itself validates record
// framing).
func (db *DB) verifyValues(r *VerifyResult, emit func(string, error)) {
	n := 0
	if err := db.Values.Scan(func(off int64, v []byte) bool {
		n++
		return true
	}); err != nil {
		emit("values", err)
	}
	r.RecordsChecked = n
}

// verifyDeweyEntries resolves every Dewey-index entry: the key must parse
// as a Dewey ID, the position must address an open token whose symbol is
// interned, and the value offset must address a readable record whose
// content is indexed under the right hash in the value index.
func (db *DB) verifyDeweyEntries(r *VerifyResult, emit func(string, error)) {
	issues := 0
	const maxReported = 20 // a systemic failure would otherwise flood the report
	report := func(err error) {
		issues++
		if issues <= maxReported {
			emit("deweyidx", err)
		}
	}
	err := db.DeweyIdx.ScanRange(nil, nil, func(key, val []byte) bool {
		r.EntriesChecked++
		id, err := dewey.FromBytes(key)
		if err != nil {
			report(fmt.Errorf("entry %x: bad key: %w", key, err))
			return true
		}
		if len(val) != 14 {
			report(fmt.Errorf("entry %s: value is %d bytes, want 14", id, len(val)))
			return true
		}
		pos, err := decodePos(val)
		if err != nil {
			report(fmt.Errorf("entry %s: %w", id, err))
			return true
		}
		sym, err := db.Tree.SymAt(pos)
		if err != nil {
			report(fmt.Errorf("entry %s: position %v does not address an open token: %w", id, pos, err))
			return true
		}
		if _, ok := db.Tags.Name(sym); !ok {
			report(fmt.Errorf("entry %s: symbol %d at %v is not in the tag table", id, sym, pos))
			return true
		}
		if valOff := binary.BigEndian.Uint64(val[6:]); valOff != NoValue {
			v, err := db.Values.Get(int64(valOff))
			if err != nil {
				report(fmt.Errorf("entry %s: value offset %d: %w", id, valOff, err))
				return true
			}
			ok, err := db.ValIdx.Has(valKey(vstore.Hash(v), id))
			if err != nil {
				report(fmt.Errorf("entry %s: value index lookup: %w", id, err))
			} else if !ok {
				report(fmt.Errorf("entry %s: value %q not indexed under its hash", id, truncVal(v)))
			}
		}
		return true
	})
	if err != nil {
		emit("deweyidx", fmt.Errorf("entry walk aborted: %w", err))
	}
	if issues > maxReported {
		emit("deweyidx", fmt.Errorf("%d further entry issues suppressed", issues-maxReported))
	}
}

func truncVal(v []byte) string {
	const max = 32
	if len(v) > max {
		return string(v[:max]) + "…"
	}
	return string(v)
}
