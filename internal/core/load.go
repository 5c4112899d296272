package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"nok/internal/btree"
	"nok/internal/dewey"
	"nok/internal/pager"
	"nok/internal/sax"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vstore"
)

// LoadXML bulk-loads an XML document into a new database directory as the
// store's epoch-1 commit. The single SAX pass drives the string-tree
// builder, the value data file, the statistics synopsis, and the entry
// runs of the four B+ trees (Figure 3); the epoch's files are then written
// and committed exactly as every later commit writes and commits its own.
func LoadXML(dir string, r io.Reader, opts *Options) (*DB, error) {
	o := opts.withDefaults()
	if err := o.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// B+ tree cells need room for deep Dewey keys, so the indexes take the
	// tree's page size only when it is at least 1KB.
	idxPageSize := o.PageSize
	if idxPageSize < 1024 {
		idxPageSize = pager.DefaultPageSize
	}
	// The directory holds no MANIFEST (and therefore no store) until
	// commitEpoch writes epoch 1's.
	next := &Snapshot{epoch: 1, Tags: symtab.New()}
	db := &DB{Snapshot: next, dir: dir, fsys: o.FS, poolPages: o.PoolPages, indexPageSize: idxPageSize}
	next.db = db
	ok := false
	defer func() {
		if !ok {
			db.Close()
		}
	}()

	var err error
	if db.treeFile, err = pager.Create(db.join(fileTree),
		&pager.Options{PageSize: o.PageSize, PoolPages: o.PoolPages, FS: o.FS}); err != nil {
		return nil, err
	}
	// The tree is copy-on-write from birth: the whole bulk load runs as
	// the epoch-1 transaction.
	if err := db.treeFile.InitVersioning(); err != nil {
		return nil, err
	}
	if err := db.treeFile.BeginCOW(next.epoch); err != nil {
		return nil, err
	}
	builder, err := stree.NewBuilder(db.treeFile, &stree.BuilderOptions{ReservePct: o.ReservePct})
	if err != nil {
		return nil, err
	}
	if next.Values, err = vstore.CreateFS(o.FS, db.join(fileValues)); err != nil {
		return nil, err
	}
	l := &loader{v: next, builder: builder, sb: stats.NewBuilder()}
	if _, err := walkSubjectTree(r, l.open, l.close, func(line int) error {
		return fmt.Errorf("core: multiple root elements (line %d)", line)
	}); err != nil {
		return nil, err
	}
	wtree, err := builder.Finish()
	if err != nil {
		return nil, err
	}
	next.syn = l.sb.Finish(next.epoch, uint64(wtree.NumPages()))
	if err := db.writeEpochFiles(next, &l.ents); err != nil {
		return nil, err
	}
	if _, err := db.commitEpoch(next, wtree); err != nil {
		return nil, err
	}
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

// walkSubjectTree reads one XML document or fragment through the paper's
// subject-tree model, where values are detached from structure: an
// attribute becomes a child node whose tag carries the "@" prefix and whose
// value is the attribute's exact text, and an element's value is its
// concatenated, trimmed text. open is called as each node starts and
// close, with the node's value, as it ends. A second root element fails
// with the error multiRoot returns for its line; rooted reports whether
// any root element was seen.
func walkSubjectTree(r io.Reader, open func(name string) error, close func(text string) error,
	multiRoot func(line int) error) (rooted bool, err error) {
	sc := sax.NewScanner(r)
	var texts [][]byte // the text collected so far by each open element
	for {
		ev, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rooted, err
		}
		switch ev.Kind {
		case sax.StartElement:
			if len(texts) == 0 && rooted {
				return rooted, multiRoot(ev.Line)
			}
			rooted = true
			if err := open(ev.Name); err != nil {
				return rooted, err
			}
			texts = append(texts, nil)
			for _, a := range ev.Attrs {
				if err := open(symtab.AttrPrefix + a.Name); err != nil {
					return rooted, err
				}
				if err := close(a.Value); err != nil {
					return rooted, err
				}
			}
		case sax.EndElement:
			text := strings.TrimSpace(string(texts[len(texts)-1]))
			texts = texts[:len(texts)-1]
			if err := close(text); err != nil {
				return rooted, err
			}
		case sax.Text:
			if len(texts) > 0 {
				texts[len(texts)-1] = append(texts[len(texts)-1], ev.Data...)
			}
		}
	}
	if len(texts) != 0 {
		return rooted, fmt.Errorf("core: document ended with %d open element(s)", len(texts))
	}
	return rooted, nil
}

// openElem tracks one element between its start and end events.
type openElem struct {
	pos      stree.Pos
	sym      symtab.Sym
	id       dewey.ID
	pathHash uint64
	kids     uint32
}

// loader feeds the load's subject-tree walk into the string-tree builder,
// the value file, the synopsis builder and the index entry runs.
type loader struct {
	v       *Snapshot
	builder *stree.Builder
	sb      *stats.Builder
	stack   []openElem
	ents    indexEntries
}

func (l *loader) open(name string) error {
	sym, err := l.v.Tags.Intern(name)
	if err != nil {
		return err
	}
	pos, err := l.builder.Open(sym)
	if err != nil {
		return err
	}
	e := openElem{pos: pos, sym: sym, id: dewey.Root(), pathHash: extendPathHash(pathHashSeed, sym)}
	if len(l.stack) > 0 {
		parent := &l.stack[len(l.stack)-1]
		parent.kids++
		e.id = parent.id.Child(parent.kids)
		e.pathHash = extendPathHash(parent.pathHash, sym)
	}
	l.stack = append(l.stack, e)
	l.sb.Node(sym, len(l.stack))
	return nil
}

// close finishes the innermost element: emits the close token, stores its
// value, and buffers the element's index entries.
func (l *loader) close(text string) error {
	if err := l.builder.Close(); err != nil {
		return err
	}
	e := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	valOff, valHash := NoValue, uint64(0)
	if text != "" {
		off, err := l.v.Values.Append([]byte(text))
		if err != nil {
			return err
		}
		valOff, valHash = uint64(off), vstore.Hash([]byte(text))
		l.sb.Value(len(l.stack)+1, valHash)
	}
	l.ents.addNode(e.sym, e.pathHash, e.id, e.pos, valOff, valHash)
	return nil
}

// indexEntries buffers one epoch's index entries, one run per B+ tree,
// until writeEpochFiles inserts each run in ascending key order. Sorted
// insertion hits the tree's rightmost-split heuristic, producing near-full
// pages (about half the size of random-order builds). For stores too large
// to buffer every entry in memory, an external sort would take this place.
type indexEntries struct {
	tag, val, dewey, path indexRun
}

// addNode buffers one node's entries. valOff is NoValue for a node without
// a value, which then has no value-index entry and valHash is ignored.
func (e *indexEntries) addNode(sym symtab.Sym, pathHash uint64, id dewey.ID, pos stree.Pos, valOff, valHash uint64) {
	p := encodePos(pos)
	e.tag.add(tagKey(sym, id), p)
	e.path.add(pathKey(pathHash, id), p)
	if valOff != NoValue {
		e.val.add(valKey(valHash, id), p)
	}
	e.dewey.add(id.Bytes(), deweyVal(pos, valOff))
}

// indexRun holds one B+ tree's entries as key‖value records back to back
// in a single arena, located by recs.
type indexRun struct {
	arena []byte
	recs  []indexRec
}

// indexRec locates one record: its key is arena[off:off+klen], its value
// the vlen bytes after the key.
type indexRec struct {
	off        uint32
	klen, vlen uint16
}

func (r *indexRun) add(key, val []byte) {
	r.recs = append(r.recs, indexRec{off: uint32(len(r.arena)), klen: uint16(len(key)), vlen: uint16(len(val))})
	r.arena = append(append(r.arena, key...), val...)
}

// build sorts the run by key, inserts it into t, flushes t, and drops the
// run's memory.
func (r *indexRun) build(t *btree.Tree) error {
	if uint64(len(r.arena)) > math.MaxUint32 {
		return errors.New("core: index entries exceed the 4 GiB a run can address")
	}
	key := func(x indexRec) []byte { return r.arena[x.off : int(x.off)+int(x.klen)] }
	slices.SortFunc(r.recs, func(a, b indexRec) int { return bytes.Compare(key(a), key(b)) })
	for _, x := range r.recs {
		end := int(x.off) + int(x.klen)
		if err := t.Insert(r.arena[x.off:end], r.arena[end:end+int(x.vlen)]); err != nil {
			return err
		}
	}
	*r = indexRun{}
	return t.Flush()
}
