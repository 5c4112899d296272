package symtab

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestInternIsIdempotent(t *testing.T) {
	tab := New()
	a1, err := tab.Intern("book")
	if err != nil {
		t.Fatal(err)
	}
	a2, err := tab.Intern("book")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Errorf("Intern(book) twice: %d != %d", a1, a2)
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d, want 1", tab.Len())
	}
}

func TestSymbolsAreDenseFromOne(t *testing.T) {
	tab := New()
	names := []string{"bib", "book", "@year", "author", "title"}
	for i, name := range names {
		s, err := tab.Intern(name)
		if err != nil {
			t.Fatal(err)
		}
		if s != Sym(i+1) {
			t.Errorf("Intern(%q) = %d, want %d", name, s, i+1)
		}
	}
}

func TestZeroSymIsInvalid(t *testing.T) {
	tab := New()
	if _, ok := tab.Name(0); ok {
		t.Error("Name(0) should not resolve")
	}
	if _, ok := tab.Name(1); ok {
		t.Error("Name(1) on empty table should not resolve")
	}
}

func TestLookupDoesNotIntern(t *testing.T) {
	tab := New()
	if _, ok := tab.Lookup("missing"); ok {
		t.Error("Lookup should miss on empty table")
	}
	if tab.Len() != 0 {
		t.Error("Lookup must not intern")
	}
}

func TestRoundTripNameSym(t *testing.T) {
	tab := New()
	f := func(name string) bool {
		s, err := tab.Intern(name)
		if err != nil {
			return false
		}
		got, ok := tab.Name(s)
		return ok && got == name
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tab := New()
	names := []string{"bib", "book", "@year", "title", "author", "last", "first",
		"publisher", "price", "日本語"}
	for _, n := range names {
		if _, err := tab.Intern(n); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tab.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), tab.Len())
	}
	for _, n := range names {
		s1, _ := tab.Lookup(n)
		s2, ok := got.Lookup(n)
		if !ok || s1 != s2 {
			t.Errorf("after round trip, Lookup(%q) = %d,%v, want %d", n, s2, ok, s1)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tags.sym")
	tab := New()
	for i := 0; i < 300; i++ {
		if _, err := tab.Intern(fmt.Sprintf("tag%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 300 {
		t.Fatalf("Len = %d, want 300", got.Len())
	}
	s, ok := got.Lookup("tag123")
	if !ok {
		t.Fatal("tag123 missing after load")
	}
	if name, _ := got.Name(s); name != "tag123" {
		t.Errorf("Name(%d) = %q", s, name)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a table"))); err == nil {
		t.Error("expected error reading garbage")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("expected error reading empty input")
	}
	// A well-formed legacy unchecksummed NKS1 table (names "a", "b") must
	// be refused by its magic, not decoded past the CRC check.
	_, err := Read(bytes.NewReader([]byte("NKS1\x00\x00\x00\x02\x00\x01a\x00\x01b")))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("reading an NKS1 table: err = %v, want bad magic", err)
	}
}

func TestNamesSorted(t *testing.T) {
	tab := New()
	for _, n := range []string{"zebra", "apple", "mango"} {
		if _, err := tab.Intern(n); err != nil {
			t.Fatal(err)
		}
	}
	names := tab.Names()
	want := []string{"apple", "mango", "zebra"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
}

func TestAlphabetCapacity(t *testing.T) {
	if testing.Short() {
		t.Skip("fills the whole alphabet")
	}
	tab := New()
	for i := 0; i < int(MaxSym); i++ {
		if _, err := tab.Intern(fmt.Sprintf("t%d", i)); err != nil {
			t.Fatalf("Intern %d: %v", i, err)
		}
	}
	if _, err := tab.Intern("one-too-many"); err != ErrFull {
		t.Errorf("expected ErrFull, got %v", err)
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	tab := New()
	if _, err := tab.Intern("x"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Save(filepath.Join(t.TempDir(), "no", "such", "dir", "t.sym")); err == nil {
		t.Error("Save into missing directory should fail")
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sym")
	tab := New()
	if _, err := tab.Intern("one"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Intern("two"); err != nil {
		t.Fatal(err)
	}
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("Len after resave = %d", got.Len())
	}
	// No temp file left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after Save", len(entries))
	}
}
