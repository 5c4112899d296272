package core

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nok/internal/pager"
	"nok/internal/samples"
)

func TestVerifyCleanStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := LoadXML(dir, strings.NewReader(samples.Bibliography), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := db.Verify(true)
	for _, is := range r.Issues {
		t.Errorf("fresh store: %s", is)
	}
	if r.PagesChecked == 0 || r.EntriesChecked == 0 || r.RecordsChecked == 0 {
		t.Errorf("deep verify did no work: %+v", r)
	}

	// Still clean after a committed update.
	if err := db.InsertFragment(mustID(t, "0"), strings.NewReader("<note><title>x</title></note>")); err != nil {
		t.Fatal(err)
	}
	r = db.Verify(true)
	for _, is := range r.Issues {
		t.Errorf("post-insert: %s", is)
	}

	// And after a delete.
	if err := db.DeleteSubtree(mustID(t, "0.1")); err != nil {
		t.Fatal(err)
	}
	r = db.Verify(true)
	for _, is := range r.Issues {
		t.Errorf("post-delete: %s", is)
	}
}

// TestVerifyDetectsFlippedByte: bit rot inside a tree page region that
// Open does not read must still be caught by a deep verify. Open walks
// every committed page's checksummed payload, and tree.pg carries no
// whole-file checksum (its free pages hold stale bytes by design under
// copy-on-write), so the one region nothing reads is the reserved trailer
// slack after each page's CRC — always zero as written. Deep verification
// must flag nonzero slack on committed pages.
func TestVerifyDetectsFlippedByte(t *testing.T) {
	dir := buildDir(t)
	path := filepath.Join(dir, storeFiles(t, dir)[roleTree])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a reserved trailer byte in every data page: free pages are
	// legitimately ignored, but at least one page is referenced by the
	// committed table and must be flagged.
	pageSize := int(binary.BigEndian.Uint32(raw[6:10]))
	physSize := pageSize + pager.TrailerLen
	flipped := 0
	for end := 2 * physSize; end <= len(raw); end += physSize {
		raw[end-2] ^= 0xFF
		flipped++
	}
	if flipped == 0 {
		t.Fatal("tree.pg holds no data pages")
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := Open(dir, nil)
	if err != nil {
		t.Fatalf("Open rejected reserved-trailer damage it should not see: %v", err)
	}
	defer db.Close()
	r := db.Verify(true)
	if r.OK() {
		t.Error("deep verify missed a flipped byte in tree.pg")
	}
}

// TestVerifyDetectsCountMismatch: quick verify catches cross-component
// disagreement (here simulated by corrupting the in-memory synopsis).
func TestVerifyDetectsCountMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := LoadXML(dir, strings.NewReader(samples.Bibliography), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.syn.TotalNodes += 3
	r := db.Verify(false)
	if r.OK() {
		t.Error("quick verify missed a synopsis total mismatch")
	}
}

// TestVerifyBrokenStoreRefuses: a store stuck in a failed update reports
// that and skips further checks (its in-memory state is unreliable).
func TestVerifyBrokenStoreRefuses(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := LoadXML(dir, strings.NewReader(samples.Bibliography), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.broken = true
	r := db.Verify(true)
	if r.OK() {
		t.Error("verify passed a broken store")
	}
	if r.PagesChecked != 0 {
		t.Error("verify kept checking a broken store")
	}
}

func TestVerifyPagesHelperSeesAllPages(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := LoadXML(dir, strings.NewReader(samples.Bibliography), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n, err := db.treeFile.VerifyPages(func(id pager.PageID, err error) {
		t.Errorf("page %d: %v", id, err)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Errorf("tree file has only %d pages", n)
	}
}
