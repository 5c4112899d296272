package core

import (
	"errors"
	"fmt"
	"io"

	"nok/internal/dewey"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vstore"
)

// This file is the group-commit append path behind internal/ingest. A
// batch of fragments parses into ONE concatenated token string (balanced
// subtrees concatenate into a string InsertChild accepts wholesale), so
// the whole batch costs a single copy-on-write transaction: one subtree
// splice, one index rebuild, one fsync + MANIFEST rename, one published
// epoch. That amortization is what makes sustained ingest viable — the
// per-commit cost that dominates Insert is paid once per batch.
//
// The statistics synopsis is maintained incrementally on this path: the
// parse feeds a delta builder seeded with the insertion point's ancestor
// chain, and the delta merges into the previous epoch's synopsis
// (stats.Merge) instead of being recollected by the rebuild scan. The
// merged synopsis commits at the new epoch with everything else.

// FragmentError reports which fragment of a batch failed, so callers can
// drop it and retry the rest. It always wraps the underlying cause.
type FragmentError struct {
	// Index is the position of the offending fragment in the batch.
	Index int
	Err   error
}

func (e *FragmentError) Error() string {
	return fmt.Sprintf("core: batch fragment %d: %v", e.Index, e.Err)
}

func (e *FragmentError) Unwrap() error { return e.Err }

// InsertFragmentBatch appends every fragment, in order, as new last
// children of the node identified by parent — one atomic commit, one new
// epoch. Each fragment must contain exactly one root element. A parse
// failure aborts the whole batch before ANY mutation — the tree, the
// symbol table, and the append-only value store are all untouched — and
// is reported as a *FragmentError identifying the offender, so callers
// may drop it and retry the rest without leaking state.
func (db *DB) InsertFragmentBatch(parent dewey.ID, frags []io.Reader) error {
	db.wmu.Lock()
	defer db.wmu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	if db.broken {
		return ErrNeedsRecovery
	}
	if len(frags) == 0 {
		return nil
	}
	pos, _, found, err := db.NodeAt(parent)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: no node with ID %s", parent)
	}

	// The first new subtree's Dewey ordinal is the parent's current child
	// count plus one; subsequent fragments take consecutive ordinals.
	kids, err := db.countChildren(pos)
	if err != nil {
		return err
	}

	// New names intern into a clone of the committed symbol table:
	// readers of the current epoch keep their table untouched, and an
	// abort simply discards the clone.
	newTags := db.Tags.Clone()

	// Incremental synopsis: collect the batch's contribution in a delta
	// builder seeded with the insertion point's ancestor chain, and merge
	// it into the committed synopsis instead of rebuilding.
	anc, err := db.ancestorSyms(parent)
	if err != nil {
		return err
	}
	delta := stats.NewDeltaBuilder(anc)

	var enc stree.SubtreeEncoder
	var pend []pendingValue
	for i, r := range frags {
		ord := kids + 1 + uint32(i)
		if err := db.parseFragment(r, &enc, newTags, parent, ord, &pend, delta); err != nil {
			return &FragmentError{Index: i, Err: err}
		}
	}
	tokens, err := enc.Bytes()
	if err != nil {
		return err
	}

	// Text values land in the append-only value store only now, after the
	// whole batch parsed: a *FragmentError abort must leave the store
	// untouched, or a caller's drop-and-retry would re-append every
	// retained fragment's values as uncompactable orphan bytes. An append
	// failure here is an I/O error, fatal rather than per-fragment.
	valueAt := make(map[string]uint64, len(pend))
	for _, pv := range pend {
		off, err := db.Values.Append([]byte(pv.text))
		if err != nil {
			return err
		}
		valueAt[pv.id] = uint64(off)
	}

	// Carry over existing dewey→value associations (appending as the last
	// child never renumbers existing nodes), add the new ones, then run
	// the whole batch as one atomic commit.
	carried, err := db.valueAssociations(nil, 0)
	if err != nil {
		return err
	}
	for k, v := range valueAt {
		carried[k] = v
	}
	// A nil merge (incompatible sketches) makes applyUpdate rebuild the
	// synopsis by scan.
	merged := stats.Merge(db.syn, delta.Delta())
	return db.applyUpdate(newTags, carried, merged, func(t *stree.Store) error {
		return t.InsertChild(pos, tokens)
	})
}

// pendingValue is a text value collected during the parse, buffered so
// nothing touches the append-only value store until the whole batch is
// known to parse.
type pendingValue struct {
	id   string // Dewey ID the new node will have
	text string
}

// parseFragment parses one XML fragment into the shared batch encoder,
// collects its values keyed by the Dewey IDs the new nodes will have
// (rooted at parent.Child(ord)), and feeds the synopsis delta builder.
// The fragment must contain exactly one root element so consecutive
// batch ordinals line up with the spliced tree.
// Nothing durable mutates here: values are buffered into pend, names
// intern into the cloned table, and an error discards both.
func (db *DB) parseFragment(r io.Reader, enc *stree.SubtreeEncoder, newTags *symtab.Table,
	parent dewey.ID, ord uint32, pend *[]pendingValue, delta *stats.Builder) error {
	errRoot := errors.New("core: fragment must have a single root element")
	// Fragment roots sit one level below the parent; len(parent) is the
	// parent's depth (the document root's ID "0" has length 1, depth 1),
	// so a node's level is len(parent) plus its depth in the fragment.
	type open struct {
		id   dewey.ID
		kids uint32
	}
	var stack []open
	rooted, err := walkSubjectTree(r, func(name string) error {
		sym, err := newTags.Intern(name)
		if err != nil {
			return err
		}
		if err := enc.Open(sym); err != nil {
			return err
		}
		id := parent.Child(ord)
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			p.kids++
			id = p.id.Child(p.kids)
		}
		stack = append(stack, open{id: id})
		delta.Node(sym, len(parent)+len(stack))
		return nil
	}, func(text string) error {
		if err := enc.Close(); err != nil {
			return err
		}
		id := stack[len(stack)-1].id
		stack = stack[:len(stack)-1]
		if text != "" {
			*pend = append(*pend, pendingValue{id: id.String(), text: text})
			delta.Value(len(parent)+len(stack)+1, vstore.Hash([]byte(text)))
		}
		return nil
	}, func(int) error { return errRoot })
	if err == nil && !rooted {
		err = errRoot
	}
	return err
}

// ancestorSyms returns the tag symbols on the path from the document root
// down to (and including) the node with the given ID — the seed chain for
// a synopsis delta builder.
func (db *DB) ancestorSyms(id dewey.ID) ([]symtab.Sym, error) {
	syms := make([]symtab.Sym, 0, len(id))
	for i := 1; i <= len(id); i++ {
		pos, _, ok, err := db.NodeAt(id[:i])
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("core: no node with ID %s", id[:i])
		}
		sym, err := db.Tree.SymAt(pos)
		if err != nil {
			return nil, err
		}
		syms = append(syms, sym)
	}
	return syms, nil
}
