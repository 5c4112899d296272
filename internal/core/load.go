package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nok/internal/btree"
	"nok/internal/dewey"
	"nok/internal/pager"
	"nok/internal/sax"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vfs"
	"nok/internal/vstore"
)

// LoadXML bulk-loads an XML document into a new database directory. The
// single SAX pass drives everything at once: the string-tree builder, the
// value data file, and the three B+ trees (Figure 3).
//
// Attributes become child nodes whose tag carries the "@" prefix, and an
// element's (concatenated, trimmed) text becomes its value, matching the
// paper's subject-tree model where values are detached from structure.
func LoadXML(dir string, r io.Reader, opts *Options) (*DB, error) {
	o := opts.withDefaults()
	if err := o.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The first committed epoch is 1; the directory holds no MANIFEST (and
	// therefore no store) until the very last step of the load.
	const epoch = 1
	names := epochNames(epoch)
	v := &Snapshot{epoch: epoch}
	db := &DB{Snapshot: v, dir: dir, fsys: o.FS, poolPages: o.PoolPages}
	v.db = db
	ok := false
	defer func() {
		if !ok {
			db.Close()
		}
	}()

	var err error
	if db.treeFile, err = pager.Create(filepath.Join(dir, names[roleTree]),
		&pager.Options{PageSize: o.PageSize, PoolPages: o.PoolPages, FS: o.FS}); err != nil {
		return nil, err
	}
	// The tree is copy-on-write from birth: the whole bulk load runs as
	// the epoch-1 transaction, committed at the end alongside the first
	// manifest.
	if err := db.treeFile.InitVersioning(); err != nil {
		return nil, err
	}
	if err := db.treeFile.BeginCOW(epoch); err != nil {
		return nil, err
	}
	builder, err := stree.NewBuilder(db.treeFile, &stree.BuilderOptions{ReservePct: o.ReservePct})
	if err != nil {
		return nil, err
	}
	v.Tags = symtab.New()
	if v.Values, err = vstore.CreateFS(o.FS, filepath.Join(dir, names[roleValues])); err != nil {
		return nil, err
	}
	idxOpts := func() *pager.Options {
		return &pager.Options{PageSize: o.IndexPageSize, PoolPages: o.PoolPages, FS: o.FS}
	}
	if v.tagIdxFile, err = pager.Create(filepath.Join(dir, names[roleTagIdx]), idxOpts()); err != nil {
		return nil, err
	}
	if v.TagIdx, err = btree.Create(v.tagIdxFile); err != nil {
		return nil, err
	}
	if v.valIdxFile, err = pager.Create(filepath.Join(dir, names[roleValIdx]), idxOpts()); err != nil {
		return nil, err
	}
	if v.ValIdx, err = btree.Create(v.valIdxFile); err != nil {
		return nil, err
	}
	if v.dewIdxFile, err = pager.Create(filepath.Join(dir, names[roleDewIdx]), idxOpts()); err != nil {
		return nil, err
	}
	if v.DeweyIdx, err = btree.Create(v.dewIdxFile); err != nil {
		return nil, err
	}
	if v.pathIdxFile, err = pager.Create(filepath.Join(dir, names[rolePathIdx]), idxOpts()); err != nil {
		return nil, err
	}
	if v.PathIdx, err = btree.Create(v.pathIdxFile); err != nil {
		return nil, err
	}

	loader := &loader{db: db, builder: builder, sb: stats.NewBuilder()}
	if err := loader.run(sax.NewScanner(r)); err != nil {
		return nil, err
	}
	if err := loader.flushIndexes(); err != nil {
		return nil, err
	}
	wtree, err := builder.Finish()
	if err != nil {
		return nil, err
	}
	if err := v.Tags.SaveFS(o.FS, filepath.Join(dir, names[roleTags])); err != nil {
		return nil, err
	}
	// The statistics synopsis was collected by the same SAX pass; it is
	// committed through the manifest like every other store file.
	v.syn = loader.sb.Finish(epoch, uint64(wtree.NumPages()))
	if err := vfs.WriteFileAtomic(o.FS, filepath.Join(dir, names[roleSynopsis]), stats.Encode(v.syn), 0o644); err != nil {
		return nil, err
	}
	// Make everything durable, then commit the store into existence:
	// seal the epoch-1 copy-on-write transaction, write its page-table
	// sidecar, and write the first manifest.
	for _, t := range []*btree.Tree{v.TagIdx, v.ValIdx, v.DeweyIdx, v.PathIdx} {
		if err := t.Flush(); err != nil {
			return nil, err
		}
	}
	if err := v.Values.Flush(); err != nil {
		return nil, err
	}
	side, err := db.treeFile.SealCOW()
	if err != nil {
		return nil, err
	}
	if err := vfs.WriteFileAtomic(o.FS, filepath.Join(dir, names[roleTreeMap]), side, 0o644); err != nil {
		return nil, err
	}
	m, err := buildManifest(o.FS, dir, epoch, names)
	if err != nil {
		return nil, err
	}
	if err := writeManifest(o.FS, dir, m); err != nil {
		return nil, err
	}
	if _, err := db.treeFile.Publish(); err != nil {
		return nil, err
	}
	psn, err := db.treeFile.Acquire()
	if err != nil {
		return nil, err
	}
	v.psn = psn
	v.Tree = wtree.Snapshot(psn)
	db.manifest = m
	v.publish()
	ok = true
	return db, nil
}

// LoadXMLFile is LoadXML reading from a file path.
func LoadXMLFile(dir, xmlPath string, opts *Options) (*DB, error) {
	f, err := os.Open(xmlPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadXML(dir, f, opts)
}

// openElem tracks one element between its start and end events.
type openElem struct {
	pos      stree.Pos
	sym      symtab.Sym
	id       dewey.ID
	pathHash uint64
	text     strings.Builder
	kids     uint32
}

// indexEntry is one deferred B+ tree insertion. Index entries are buffered
// during the SAX pass and bulk-inserted in ascending key order afterwards:
// sorted insertion hits the tree's rightmost-split heuristic, producing
// near-full pages (about half the size of random-order builds). For
// documents too large to buffer ~100 bytes per node, an external sort
// would take this place.
type indexEntry struct {
	key, val []byte
}

type loader struct {
	db      *DB
	builder *stree.Builder
	sb      *stats.Builder
	stack   []*openElem

	tagEntries   []indexEntry
	valEntries   []indexEntry
	deweyEntries []indexEntry
	pathEntries  []indexEntry
}

func (l *loader) run(sc *sax.Scanner) error {
	rootSeen := false
	for {
		ev, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch ev.Kind {
		case sax.StartElement:
			if len(l.stack) == 0 && rootSeen {
				return fmt.Errorf("core: multiple root elements (line %d)", ev.Line)
			}
			rootSeen = true
			if err := l.open(ev.Name); err != nil {
				return err
			}
			for _, a := range ev.Attrs {
				if err := l.open(symtab.AttrPrefix + a.Name); err != nil {
					return err
				}
				l.stack[len(l.stack)-1].text.WriteString(a.Value)
				if err := l.close(false); err != nil {
					return err
				}
			}
		case sax.EndElement:
			if err := l.close(true); err != nil {
				return err
			}
		case sax.Text:
			if len(l.stack) > 0 {
				l.stack[len(l.stack)-1].text.WriteString(ev.Data)
			}
		}
	}
	if len(l.stack) != 0 {
		return fmt.Errorf("core: document ended with %d open element(s)", len(l.stack))
	}
	return nil
}

func (l *loader) open(name string) error {
	sym, err := l.db.Tags.Intern(name)
	if err != nil {
		return err
	}
	pos, err := l.builder.Open(sym)
	if err != nil {
		return err
	}
	e := &openElem{pos: pos, sym: sym}
	if len(l.stack) == 0 {
		e.id = dewey.Root()
		e.pathHash = extendPathHash(pathHashSeed, sym)
	} else {
		parent := l.stack[len(l.stack)-1]
		parent.kids++
		e.id = parent.id.Child(parent.kids)
		e.pathHash = extendPathHash(parent.pathHash, sym)
	}
	l.stack = append(l.stack, e)
	l.sb.Node(sym, len(l.stack))
	l.tagEntries = append(l.tagEntries, indexEntry{tagKey(sym, e.id), encodePos(pos)})
	l.pathEntries = append(l.pathEntries, indexEntry{pathKey(e.pathHash, e.id), encodePos(pos)})
	return nil
}

// close finishes the innermost element: emits the close token, stores its
// value (trimmed; attributes keep their exact value), and writes the value
// and Dewey index entries.
func (l *loader) close(trim bool) error {
	if err := l.builder.Close(); err != nil {
		return err
	}
	e := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]

	text := e.text.String()
	if trim {
		text = strings.TrimSpace(text)
	}
	valOff := NoValue
	if text != "" {
		off, err := l.db.Values.Append([]byte(text))
		if err != nil {
			return err
		}
		valOff = uint64(off)
		l.sb.Value(len(l.stack)+1, vstore.Hash([]byte(text)))
		l.valEntries = append(l.valEntries, indexEntry{valKey(vstore.Hash([]byte(text)), e.id), encodePos(e.pos)})
	}
	l.deweyEntries = append(l.deweyEntries, indexEntry{e.id.Bytes(), deweyVal(e.pos, valOff)})
	return nil
}

// flushIndexes sorts the buffered entries and bulk-inserts them.
func (l *loader) flushIndexes() error {
	for _, batch := range []struct {
		tree    *btree.Tree
		entries []indexEntry
	}{
		{l.db.TagIdx, l.tagEntries},
		{l.db.ValIdx, l.valEntries},
		{l.db.DeweyIdx, l.deweyEntries},
		{l.db.PathIdx, l.pathEntries},
	} {
		sort.Slice(batch.entries, func(i, j int) bool {
			return bytes.Compare(batch.entries[i].key, batch.entries[j].key) < 0
		})
		for _, e := range batch.entries {
			if err := batch.tree.Insert(e.key, e.val); err != nil {
				return err
			}
		}
	}
	l.tagEntries, l.valEntries, l.deweyEntries, l.pathEntries = nil, nil, nil, nil
	return nil
}
