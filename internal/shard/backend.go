package shard

// backend.go — the per-shard storage abstraction behind the scatter
// executor. A shard is either local (a nok.Store directory under the
// collection root) or remote (a nokserve process reached through
// internal/remote's fault-tolerant client); the coordinator talks to both
// through Backend and never cares which is which, except in two places:
// remote unavailability maps to degraded results or ErrShardUnavailable
// (a local shard is either open or the whole store is broken), and remote
// shards sit outside the local MVCC consistent cut (each remote process
// pins its own committed snapshot — see docs/FAULT_TOLERANCE.md).

import (
	"bytes"
	"context"
	"fmt"

	"nok"
	"nok/internal/remote"
)

// Backend is one shard's storage surface. Local shards are *nok.Store
// wrappers; remote shards are internal/remote clients.
type Backend interface {
	// View pins a read view for one scatter: a reference-counted MVCC
	// snapshot locally, a plain handle remotely. The caller must Release
	// it exactly once.
	View() (View, error)

	Value(id string) (string, bool, error)
	// InsertBatch appends frags, in order, under parentID. A local shard
	// commits them as one epoch; a remote one reports a failure as a
	// *partialCommitError naming the prefix that committed.
	InsertBatch(parentID string, frags [][]byte) error
	Delete(id string) error

	Stats() nok.Stats
	NodeCount() uint64
	Epoch() uint64
	TagCount(name string) uint64
	Synopsis(n int) nok.SynopsisInfo
	// MVCC reports the shard's version accounting; ok is false when the
	// shard cannot report one (an unreachable remote never seen).
	MVCC() (nok.MVCCInfo, bool)
	Plan(expr string) (string, error)
	// ProvablyEmpty consults the shard's statistics synopsis without
	// evaluating. Remote shards answer conservatively (false) here —
	// their real pruning happens server-side inside Scatter, where it
	// costs no extra round trip.
	ProvablyEmpty(expr string) (bool, string, error)
	Verify(deep bool) *nok.VerifyResult
	Close() error
}

// View is one shard's pinned read view for the duration of one scatter.
type View interface {
	// Epoch is the committed epoch the view observes (a local pin is
	// exact; a remote view reports the last epoch the client has seen,
	// 0 before any response).
	Epoch() uint64
	// Scatter evaluates expr on the shard, applying the shard's own
	// statistics-based pruning first: a provably empty shard returns
	// Pruned=true without evaluating.
	Scatter(ctx context.Context, expr string, opts *nok.QueryOptions) (*remote.ScatterResult, error)
	// ProvablyEmpty consults the view's statistics (used by the cache
	// fingerprint, which needs the pruning verdict and the epoch to
	// describe the same pinned state). Remote views answer false.
	ProvablyEmpty(expr string) (bool, string, error)
	Release()
}

// health describes one shard's availability for Store.Health; local
// shards are always healthy-or-broken with the store itself.
type health interface {
	Healthy() bool
	BreakerState() string
	Addr() string
}

// ---- local --------------------------------------------------------------

// localBackend adapts *nok.Store. Everything except View and MVCC is the
// embedded method set.
type localBackend struct {
	*nok.Store
}

func (b localBackend) View() (View, error) {
	snap, err := b.Store.Snapshot()
	if err != nil {
		return nil, err
	}
	return localView{snap}, nil
}

func (b localBackend) MVCC() (nok.MVCCInfo, bool) { return b.Store.MVCC(), true }

type localView struct {
	snap *nok.Snapshot
}

func (v localView) Epoch() uint64 { return v.snap.Epoch() }
func (v localView) Release()      { v.snap.Release() }

func (v localView) ProvablyEmpty(expr string) (bool, string, error) {
	return v.snap.ProvablyEmpty(expr)
}

func (v localView) Scatter(ctx context.Context, expr string, opts *nok.QueryOptions) (*remote.ScatterResult, error) {
	empty, reason, err := v.snap.ProvablyEmpty(expr)
	if err != nil {
		return nil, err
	}
	if empty {
		return &remote.ScatterResult{Pruned: true, Reason: reason, Epoch: v.snap.Epoch()}, nil
	}
	rs, qs, err := v.snap.QueryWithOptionsContext(ctx, expr, opts)
	if err != nil {
		return nil, err
	}
	return &remote.ScatterResult{Results: rs, Stats: qs, Epoch: v.snap.Epoch()}, nil
}

// ---- remote -------------------------------------------------------------

// remoteBackend adapts a remote client. The client's own methods already
// match the Backend surface; only View, ProvablyEmpty and InsertBatch need
// glue.
type remoteBackend struct {
	*remote.Client
}

func (b remoteBackend) View() (View, error) { return remoteView{b.Client}, nil }

// InsertBatch sends the fragments one POST /insert at a time: the wire has
// no batch form for a parent below the collection root, and mutations are
// never retried. Any failure is a *partialCommitError.
func (b remoteBackend) InsertBatch(parentID string, frags [][]byte) error {
	for i, f := range frags {
		if err := b.Client.Insert(parentID, bytes.NewReader(f)); err != nil {
			return &partialCommitError{committed: i, err: err}
		}
	}
	return nil
}

// partialCommitError reports a remote batch that failed after its first
// committed fragments landed. It is deliberately not a *nok.FragmentError:
// fragments are validated before any backend is called, so the failure is
// store- or network-level, and the failing POST itself may have committed
// (a timed-out request), so dropping a fragment and retrying the rest
// could duplicate documents.
type partialCommitError struct {
	committed int
	err       error
}

func (e *partialCommitError) Error() string {
	return fmt.Sprintf("remote batch failed after %d committed fragment(s), not retryable: %v", e.committed, e.err)
}

func (e *partialCommitError) Unwrap() error { return e.err }

// ProvablyEmpty answers conservatively: the coordinator holds no
// statistics for a remote shard. The remote process applies its own
// pruning inside /scatter.
func (b remoteBackend) ProvablyEmpty(string) (bool, string, error) { return false, "", nil }

type remoteView struct {
	c *remote.Client
}

func (v remoteView) Epoch() uint64 { return v.c.Epoch() }
func (v remoteView) Release()      {}

func (v remoteView) ProvablyEmpty(string) (bool, string, error) { return false, "", nil }

func (v remoteView) Scatter(ctx context.Context, expr string, opts *nok.QueryOptions) (*remote.ScatterResult, error) {
	return v.c.Scatter(ctx, expr, opts)
}
