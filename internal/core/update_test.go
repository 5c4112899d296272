package core

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"nok/internal/dewey"
	"nok/internal/domnav"
	"nok/internal/pager"
	"nok/internal/samples"
)

func mustID(t *testing.T, s string) dewey.ID {
	t.Helper()
	id, err := dewey.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestInsertFragmentEndToEnd(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	frag := `<book year="2004"><title>Succinct Storage</title>` +
		`<author><last>Zhang</last><first>Ning</first></author>` +
		`<publisher>ICDE</publisher><price>10.00</price></book>`
	if err := db.InsertFragment(mustID(t, "0"), strings.NewReader(frag)); err != nil {
		t.Fatal(err)
	}
	// The new book is the fifth child of bib.
	got := queryIDs(t, db, `/bib/book`, nil)
	if len(got) != 5 || got[4] != "0.5" {
		t.Fatalf("books after insert: %v", got)
	}
	// Value constraints see the new content through the rebuilt indexes.
	got = queryIDs(t, db, `//book[author/last="Zhang"]`, nil)
	if len(got) != 1 || got[0] != "0.5" {
		t.Fatalf("Zhang query: %v", got)
	}
	got = queryIDs(t, db, `//book[price<20]/title`, nil)
	if len(got) != 1 {
		t.Fatalf("price query: %v", got)
	}
	v, ok, err := db.NodeValue(mustID(t, "0.5.2"))
	if err != nil || !ok || v != "Succinct Storage" {
		t.Fatalf("NodeValue = %q, %v, %v", v, ok, err)
	}
	// All strategies still agree with a freshly built oracle.
	var sb strings.Builder
	sb.WriteString(strings.Replace(samples.Bibliography, "</bib>", frag+"</bib>", 1))
	doc := domnav.MustParse(sb.String())
	for _, q := range []string{`/bib/book/title`, `//book[author/last="Stevens"][price<100]`, `//last`} {
		checkAgainstOracle(t, db, doc, q)
	}
}

func TestDeleteSubtreeEndToEnd(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	// Delete the second book; books 3 and 4 shift to ordinals 2 and 3.
	if err := db.DeleteSubtree(mustID(t, "0.2")); err != nil {
		t.Fatal(err)
	}
	got := queryIDs(t, db, `/bib/book`, nil)
	want := []string{"0.1", "0.2", "0.3"}
	if !sameIDs(got, want) {
		t.Fatalf("books after delete: %v", got)
	}
	// Only one Stevens book remains.
	got = queryIDs(t, db, `//book[author/last="Stevens"]`, nil)
	if !sameIDs(got, []string{"0.1"}) {
		t.Fatalf("Stevens after delete: %v", got)
	}
	// Value associations of shifted nodes must have moved with them: the
	// former third book (Data on the Web) is now 0.2.
	v, ok, err := db.NodeValue(mustID(t, "0.2.2"))
	if err != nil || !ok || v != "Data on the Web" {
		t.Fatalf("shifted title = %q, %v, %v", v, ok, err)
	}
	// Cross-check against an oracle built from the updated document.
	updated := deleteSecondBook(samples.Bibliography)
	doc := domnav.MustParse(updated)
	for _, q := range []string{`/bib/book/title`, `//book[price<100]`, `//last`} {
		checkAgainstOracle(t, db, doc, q)
	}
}

// deleteSecondBook removes the second <book>…</book> block textually.
func deleteSecondBook(xml string) string {
	first := strings.Index(xml, "<book")
	second := strings.Index(xml[first+1:], "<book") + first + 1
	endTag := "</book>"
	end := strings.Index(xml[second:], endTag) + second + len(endTag)
	return xml[:second] + xml[end:]
}

func TestInsertFragmentErrors(t *testing.T) {
	db := loadDB(t, samples.Bibliography, nil)
	if err := db.InsertFragment(mustID(t, "0.9.9"), strings.NewReader("<x/>")); err == nil {
		t.Error("insert under missing node should fail")
	}
	if err := db.InsertFragment(mustID(t, "0"), strings.NewReader("<x/><y/>")); err == nil {
		t.Error("multi-root fragment should fail")
	}
	if err := db.DeleteSubtree(mustID(t, "0.9.9")); err == nil {
		t.Error("deleting missing node should fail")
	}
}

func TestUpdateThenPersist(t *testing.T) {
	dir := t.TempDir() + "/db"
	db, err := LoadXML(dir, strings.NewReader(samples.Bibliography), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.InsertFragment(mustID(t, "0"), strings.NewReader(`<book><title>T</title></book>`)); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := queryIDs(t, db2, `/bib/book`, nil)
	if len(got) != 5 {
		t.Fatalf("books after reopen: %v", got)
	}
	got = queryIDs(t, db2, `//book[title="T"]`, nil)
	if len(got) != 1 {
		t.Fatalf("title query after reopen: %v", got)
	}
}

// TestIndexOptionsSurviveCommit: the index files a commit rebuilds keep
// the store's index page size (the tree's, when at least 1KB) and the pool
// size it was opened with, across commits and reopens alike.
func TestIndexOptionsSurviveCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	opts := &Options{PageSize: 2048, PoolPages: 16}
	check := func(db *DB, when string) {
		t.Helper()
		for _, f := range []struct {
			name string
			pf   *pager.File
		}{
			{"tagidx", db.tagIdxFile},
			{"validx", db.valIdxFile},
			{"deweyidx", db.dewIdxFile},
			{"pathidx", db.pathIdxFile},
		} {
			if got := f.pf.PoolCapacity(); got != 16 {
				t.Errorf("%s: %s pool = %d frames, want 16", when, f.name, got)
			}
			if got := f.pf.PageSize(); got != 2048 {
				t.Errorf("%s: %s page size = %d, want 2048", when, f.name, got)
			}
		}
	}
	commit := func(db *DB) {
		t.Helper()
		if err := db.InsertFragment(mustID(t, "0"), strings.NewReader(`<book><title>x</title></book>`)); err != nil {
			t.Fatal(err)
		}
	}

	db, err := LoadXML(dir, strings.NewReader(samples.Bibliography), opts)
	if err != nil {
		t.Fatal(err)
	}
	check(db, "after load")
	commit(db)
	check(db, "after first commit")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	check(db, "after reopen")
	commit(db)
	check(db, "after commit on the reopened store")
}

// TestCommitKeepsIndexesPacked: a commit builds its indexes from sorted
// runs, as the load does, so after an append or a delete commit each index
// file is within one page of a fresh load of the same document. Indexes
// filled in scan order leave most tag- and path-index leaves half empty.
func TestCommitKeepsIndexesPacked(t *testing.T) {
	const n = 600
	var recs []string
	for i := 0; i < n; i++ {
		recs = append(recs, fmt.Sprintf(`<rec id="r%d"><title>title %d</title><author>author %d</author><year>%d</year></rec>`,
			i, i, i%37, 1950+i%70))
	}
	doc := func(recs []string) string { return "<bib>" + strings.Join(recs, "") + "</bib>" }
	check := func(t *testing.T, db *DB, want string) {
		t.Helper()
		fresh := loadDB(t, want, nil)
		page := int64(fresh.dewIdxFile.PageSize())
		for _, role := range []string{roleTagIdx, roleValIdx, roleDewIdx, rolePathIdx} {
			got, err := db.fsys.Stat(db.path(role))
			if err != nil {
				t.Fatal(err)
			}
			w, err := fresh.fsys.Stat(fresh.path(role))
			if err != nil {
				t.Fatal(err)
			}
			if d := got.Size() - w.Size(); d > page || d < -page {
				t.Errorf("%s: %d bytes after the commit, %d after a fresh load", role, got.Size(), w.Size())
			}
		}
	}

	t.Run("append", func(t *testing.T) {
		db := loadDB(t, doc(recs[:n-100]), nil)
		frags := make([]io.Reader, 100)
		for i := range frags {
			frags[i] = strings.NewReader(recs[n-100+i])
		}
		if err := db.InsertFragmentBatch(dewey.Root(), frags); err != nil {
			t.Fatal(err)
		}
		check(t, db, doc(recs))
	})
	t.Run("delete", func(t *testing.T) {
		db := loadDB(t, doc(recs), nil)
		if err := db.DeleteSubtree(mustID(t, "0.1")); err != nil {
			t.Fatal(err)
		}
		check(t, db, doc(recs[1:]))
	})
}
