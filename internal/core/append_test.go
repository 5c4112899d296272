package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"nok/internal/dewey"
	"nok/internal/samples"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vstore"
)

// checkSynopsisAgainstRebuild asserts the committed (incrementally merged)
// synopsis is byte-identical to a full rebuild at the same epoch — a
// rescan of the whole tree, which is the oracle.
func checkSynopsisAgainstRebuild(t *testing.T, db *DB) {
	t.Helper()
	if got := db.Synopsis().Epoch; got != db.Epoch() {
		t.Fatalf("synopsis epoch %d after batch insert, store is at %d", got, db.Epoch())
	}
	merged := stats.Encode(db.Synopsis())
	rebuilt := rebuildSynopsis(t, db)
	if !bytes.Equal(merged, stats.Encode(rebuilt)) {
		t.Fatalf("incrementally merged synopsis differs from full rebuild:\nmerged:  %+v\nrebuilt: %+v",
			db.Synopsis(), rebuilt)
	}
}

// rebuildSynopsis collects the synopsis of db's current snapshot from a
// full scan of the tree and value file.
func rebuildSynopsis(t *testing.T, db *DB) *stats.Synopsis {
	t.Helper()
	sb := stats.NewBuilder()
	var scanErr error
	err := db.Tree.Scan(func(pos stree.Pos, sym symtab.Sym, level int, id dewey.ID) bool {
		sb.Node(sym, level)
		_, valOff, found, err := db.NodeAt(id)
		if err != nil {
			scanErr = err
			return false
		}
		if found && valOff != NoValue {
			v, err := db.Values.Get(int64(valOff))
			if err != nil {
				scanErr = err
				return false
			}
			sb.Value(level, vstore.Hash(v))
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		t.Fatalf("rebuilding synopsis: %v", err)
	}
	return sb.Finish(db.Epoch(), uint64(db.Tree.NumPages()))
}

func TestInsertFragmentBatchOneEpoch(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	epoch0 := db.Snapshot.epoch
	frags := []io.Reader{
		strings.NewReader(`<book year="2005"><title>Alpha</title><price>11.00</price></book>`),
		strings.NewReader(`<book year="2006"><title>Beta</title><price>12.00</price></book>`),
		strings.NewReader(`<article><title>Gamma</title></article>`),
	}
	if err := db.InsertFragmentBatch(mustID(t, "0"), frags); err != nil {
		t.Fatal(err)
	}
	if got := db.Snapshot.epoch; got != epoch0+1 {
		t.Fatalf("batch of 3 published %d epochs, want exactly 1", got-epoch0)
	}
	// All three landed as consecutive last children with working indexes.
	got := queryIDs(t, db, `/bib/book`, nil)
	if len(got) != 6 || got[4] != "0.5" || got[5] != "0.6" {
		t.Fatalf("books after batch: %v", got)
	}
	got = queryIDs(t, db, `//book[title="Beta"]`, nil)
	if len(got) != 1 || got[0] != "0.6" {
		t.Fatalf("Beta query: %v", got)
	}
	got = queryIDs(t, db, `/bib/article/title`, nil)
	if len(got) != 1 || got[0] != "0.7.1" {
		t.Fatalf("article title: %v", got)
	}
	v, ok, err := db.NodeValue(mustID(t, "0.6.2"))
	if err != nil || !ok || v != "Beta" {
		t.Fatalf("NodeValue = %q, %v, %v", v, ok, err)
	}
	checkSynopsisAgainstRebuild(t, db)
}

func TestInsertFragmentBatchSequential(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	for round := 0; round < 4; round++ {
		frags := make([]io.Reader, 3)
		for i := range frags {
			frags[i] = strings.NewReader(fmt.Sprintf(
				`<book year="201%d"><title>R%dN%d</title><price>%d.50</price></book>`,
				round, round, i, 10+round))
		}
		if err := db.InsertFragmentBatch(mustID(t, "0"), frags); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		checkSynopsisAgainstRebuild(t, db)
	}
	if got := queryIDs(t, db, `/bib/book`, nil); len(got) != 16 {
		t.Fatalf("books after 4 rounds = %d, want 16", len(got))
	}
}

func TestInsertFragmentBatchDeepParent(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	// Append two extra <last> nodes under the first book's author (0.1.3).
	frags := []io.Reader{
		strings.NewReader(`<last>Extra1</last>`),
		strings.NewReader(`<last>Extra2</last>`),
	}
	if err := db.InsertFragmentBatch(mustID(t, "0.1.3"), frags); err != nil {
		t.Fatal(err)
	}
	got := queryIDs(t, db, `//author[last="Extra2"]`, nil)
	if len(got) != 1 || got[0] != "0.1.3" {
		t.Fatalf("deep batch query: %v", got)
	}
	checkSynopsisAgainstRebuild(t, db)
}

func TestInsertFragmentBatchBadFragmentAborts(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	epoch0 := db.Snapshot.epoch
	before := queryIDs(t, db, `/bib/book`, nil)
	err := db.InsertFragmentBatch(mustID(t, "0"), []io.Reader{
		strings.NewReader(`<book><title>OK</title></book>`),
		strings.NewReader(`<book><title>broken`), // unclosed
		strings.NewReader(`<book><title>Never</title></book>`),
	})
	var fe *FragmentError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FragmentError, got %v", err)
	}
	if fe.Index != 1 {
		t.Fatalf("FragmentError.Index = %d, want 1", fe.Index)
	}
	if db.Snapshot.epoch != epoch0 {
		t.Fatal("failed batch published an epoch")
	}
	if after := queryIDs(t, db, `/bib/book`, nil); len(after) != len(before) {
		t.Fatalf("failed batch mutated the store: %d -> %d books", len(before), len(after))
	}
	// The store stays usable: a clean retry without the offender commits.
	err = db.InsertFragmentBatch(mustID(t, "0"), []io.Reader{
		strings.NewReader(`<book><title>OK</title></book>`),
		strings.NewReader(`<book><title>Never</title></book>`),
	})
	if err != nil {
		t.Fatalf("retry after failed batch: %v", err)
	}
	if after := queryIDs(t, db, `/bib/book`, nil); len(after) != len(before)+2 {
		t.Fatalf("retry landed %d books, want %d", len(after), len(before)+2)
	}
	checkSynopsisAgainstRebuild(t, db)
}

// TestInsertFragmentBatchAbortLeaksNoValues: a *FragmentError abort must
// leave the append-only value store untouched — the ingest pipeline's
// drop-and-retry re-submits every retained fragment, so bytes appended
// during a failed parse would leak as uncompactable orphans on each
// rejection.
func TestInsertFragmentBatchAbortLeaksNoValues(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	size0 := db.Values.Size()
	for i := 0; i < 5; i++ {
		err := db.InsertFragmentBatch(mustID(t, "0"), []io.Reader{
			strings.NewReader(`<book><title>Kept</title><price>9.99</price></book>`),
			strings.NewReader(`<book><title>bad</wrong></book>`), // mismatched close
		})
		var fe *FragmentError
		if !errors.As(err, &fe) || fe.Index != 1 {
			t.Fatalf("round %d: want *FragmentError at 1, got %v", i, err)
		}
	}
	if got := db.Values.Size(); got != size0 {
		t.Fatalf("aborted batches grew the value store by %d orphan bytes", got-size0)
	}
	// The retained fragment then commits, appending its values exactly once.
	if err := db.InsertFragmentBatch(mustID(t, "0"), []io.Reader{
		strings.NewReader(`<book><title>Kept</title><price>9.99</price></book>`),
	}); err != nil {
		t.Fatal(err)
	}
	if db.Values.Size() == size0 {
		t.Fatal("committed batch appended no values")
	}
	checkSynopsisAgainstRebuild(t, db)
}

func TestInsertFragmentBatchRejectsEmptyFragment(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	err := db.InsertFragmentBatch(mustID(t, "0"), []io.Reader{
		strings.NewReader(`<book><title>OK</title></book>`),
		strings.NewReader(`   `), // no root element: would misalign ordinals
	})
	var fe *FragmentError
	if !errors.As(err, &fe) || fe.Index != 1 {
		t.Fatalf("empty fragment: want *FragmentError at 1, got %v", err)
	}
	// Zero fragments is a no-op, not a commit.
	epoch0 := db.Snapshot.epoch
	if err := db.InsertFragmentBatch(mustID(t, "0"), nil); err != nil {
		t.Fatal(err)
	}
	if db.Snapshot.epoch != epoch0 {
		t.Fatal("empty batch published an epoch")
	}
}
