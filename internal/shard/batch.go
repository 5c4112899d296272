package shard

import (
	"errors"
	"fmt"
	"io"

	"nok"
	"nok/internal/dewey"
)

// Insert appends an XML fragment as the last child of the node identified
// by parentID: a one-fragment InsertBatch, whose *FragmentError it
// unwraps (there is only one possible offender).
func (st *Store) Insert(parentID string, fragment io.Reader) error {
	buf, err := io.ReadAll(fragment)
	if err != nil {
		return err
	}
	err = st.InsertBatch(parentID, [][]byte{buf})
	var fe *nok.FragmentError
	if errors.As(err, &fe) {
		return fe.Err
	}
	return err
}

// InsertBatch appends a batch of fragments in one pass. Every fragment is
// deep-validated first — well-formed XML, exactly one root element — so a
// malformed one rejects the batch as a *nok.FragmentError before any
// backend is called, whatever the parent. Deep parents (a node inside one
// document) then go to the owning shard as one batch. Inserting under the
// collection root ("0") routes each fragment by the collection's
// strategy, assigns consecutive global ordinals, and delivers each
// shard's share as ONE InsertBatch call; the manifest is rewritten once at
// the end.
//
// Atomicity is per shard, not per collection: a failure on one shard
// leaves batches already committed on other shards in place (their
// assignments are preserved), and a remote share records the prefix its
// member confirmed. The error contract is the ingest.Target one: a
// *nok.FragmentError (index remapped to the caller's batch) is returned
// ONLY while the collection is still untouched, so callers may drop the
// offender and retry the remainder without duplicating documents. Once
// any backend has been called, failures surface as plain (non-retryable)
// errors — a remote member's failure always does, because a timed-out
// POST may still have committed.
func (st *Store) InsertBatch(parentID string, frags [][]byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	pid, err := dewey.Parse(parentID)
	if err != nil {
		return err
	}
	if len(frags) == 0 {
		return nil
	}
	tags := make([]string, len(frags))
	for i, buf := range frags {
		if tags[i], err = validateFragment(buf); err != nil {
			return &nok.FragmentError{Index: i, Err: err}
		}
	}
	if len(pid) > 1 {
		s, local, err := st.locate(pid)
		if err != nil {
			return err
		}
		return st.shards[s].InsertBatch(local.String(), frags)
	}

	// New top-level documents: route each fragment, then deliver each
	// shard's share as one batch. Ordinals of a failed share are simply
	// never assigned; the next insert reuses them, keeping per-shard
	// assignments strictly increasing and duplicate-free.
	type share struct {
		frags   [][]byte
		globals []uint32
		orig    []int // caller's batch indexes, for error remapping
	}
	shares := make([]share, st.man.Shards)
	global := st.maxGlobal()
	for i, buf := range frags {
		global++
		target := routeHash(global, st.man.Shards)
		if st.man.Strategy == StrategyPath {
			target = st.man.routeTag(tags[i])
		}
		sh := &shares[target]
		sh.frags = append(sh.frags, buf)
		sh.globals = append(sh.globals, global)
		sh.orig = append(sh.orig, i)
	}

	// committed flips once ANY document is durable on any shard. From that
	// point a failure must NOT read as a *FragmentError: drop-and-retry
	// callers would re-submit the committed shares and duplicate them.
	var firstErr error
	committed := false
	for s, sh := range shares {
		if len(sh.frags) == 0 {
			continue
		}
		err := st.shards[s].InsertBatch("0", sh.frags)
		done := len(sh.frags)
		if err != nil {
			done = 0
			var pe *partialCommitError
			var fe *nok.FragmentError
			switch {
			case errors.As(err, &pe):
				done = pe.committed
			case errors.As(err, &fe) && fe.Index < len(sh.orig) && !committed:
				// A local share is atomic, so nothing anywhere has
				// committed yet: remap and stay retryable.
				err = &nok.FragmentError{Index: sh.orig[fe.Index], Err: fe.Err}
			case errors.As(err, &fe) && fe.Index < len(sh.orig):
				err = fmt.Errorf("fragment %d: partial batch commit (earlier shards kept their shares), not retryable: %v",
					sh.orig[fe.Index], fe.Err)
			}
		}
		st.man.Assign[s] = append(st.man.Assign[s], sh.globals[:done]...)
		committed = committed || done > 0
		if err != nil {
			firstErr = fmt.Errorf("shard %d: %w", s, err)
			break
		}
	}
	if err := saveManifest(st.dir, st.man); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
