// Package shard partitions one XML document collection across N
// independent NoK stores and evaluates path queries with a scatter-gather
// executor that merges per-shard results back into global document order.
//
// The unit of distribution is the top-level document: a collection
//
//	<bib> <book>…</book> <book>…</book> … </bib>
//
// is split so every shard holds the collection root (with its attributes
// and direct text, broadcast to all shards) plus a subset of the root's
// element children. Inside a shard the layout is an ordinary NoK store —
// the same succinct string representation, indexes, planner statistics and
// crash-safety machinery — so everything the paper's evaluator does per
// shard is unchanged; this package only routes, fans out and merges.
//
// Results come back in exactly the order the unsharded store would produce:
// each shard's Dewey IDs are remapped from local root-child ordinals to the
// global ordinals recorded in the SHARDS manifest (a strictly monotone
// rewrite, so per-shard document order survives), then k-way merged.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"

	"nok"
	"nok/internal/core"
	"nok/internal/remote"
	"nok/internal/vfs"
)

// Strategy selects how top-level documents are routed to shards.
type Strategy string

const (
	// StrategyHash routes each document by a hash of its global root-child
	// ordinal — uniform spread, position-stable.
	StrategyHash Strategy = "hash"
	// StrategyPath routes each document by its top-level element name: the
	// distinct names are dealt round-robin to shards in order of first
	// appearance (recorded in the manifest's routes table), so all
	// /bib/book documents land on one shard and all /bib/article documents
	// on another — the top-level-path locality routing that lets per-shard
	// statistics prune whole shards from tag-selective queries. Skewed
	// collections (one dominant tag) degrade to one busy shard.
	StrategyPath Strategy = "path"
)

// ManifestName is the file that marks a directory as a sharded collection.
const ManifestName = "SHARDS"

// manifestVersion guards the on-disk manifest format.
const manifestVersion = 1

// Manifest records how the collection was split. Assign[s] lists, in
// increasing order, the global root-child ordinals of the documents shard s
// owns; global ordinal g of a document at position k within shard s is
// Assign[s][k], and its local ordinal there is RootAttrs+k+1 (the broadcast
// root attributes occupy local ordinals 1..RootAttrs in every shard).
type Manifest struct {
	Version   int        `json:"version"`
	Strategy  Strategy   `json:"strategy"`
	Shards    int        `json:"shards"`
	RootTag   string     `json:"root_tag"`
	RootAttrs int        `json:"root_attrs"`
	Assign    [][]uint32 `json:"assign"`
	// Routes maps top-level element names to shards under StrategyPath;
	// names are dealt round-robin in order of first appearance, so up to
	// Shards distinct names never share a shard.
	Routes map[string]int `json:"routes,omitempty"`
	// Addrs optionally places shards on remote nokserve processes: a
	// non-empty Addrs[s] is the base URL (e.g. "http://10.0.0.7:8080")
	// of the process serving shard s's store, and Open builds a
	// fault-tolerant network client for it instead of opening
	// shard-NNNN/ locally. Empty entries (or a missing table) stay
	// local. Edited offline with SetShardAddrs (nokload -addrs).
	Addrs []string `json:"addrs,omitempty"`
}

// Options configure Create.
type Options struct {
	// Shards is the number of partitions (default 4).
	Shards int
	// Strategy is the document-routing strategy (default StrategyHash).
	Strategy Strategy
	// Store passes through to each per-shard nok store.
	Store *nok.Options
}

// Store is an opened sharded collection: N independent nok stores plus the
// manifest mapping documents to shards.
//
// Like nok.Store it is safe for concurrent use — queries fan out in
// parallel with each other; mutations serialize against queries per shard
// and against the manifest here.
type Store struct {
	dir string

	// mu guards man (Assign and RootAttrs move under mutations) and closed.
	// Queries snapshot the assignment under RLock and then run against the
	// per-shard stores, whose own locks serialize against shard mutations.
	mu     sync.RWMutex
	man    *Manifest
	shards []Backend
	closed bool
	// remote reports that at least one backend is a network client; the
	// scatter pool then sizes itself for I/O-bound fan-out instead of
	// CPU-bound evaluation.
	remote bool
}

// ErrClosed is returned by Store methods called after Close.
var ErrClosed = errors.New("shard: store is closed")

// UnavailableError reports a scatter that could not be answered
// completely: the listed shards were unreachable after retries (or their
// circuit breakers were open) and the caller did not opt into degraded
// partial results. It matches errors.Is(err, core.ErrShardUnavailable)
// (aliased as nok.ErrShardUnavailable); the HTTP server maps it to 503.
type UnavailableError struct {
	// Shards lists the unreachable shard indexes, ascending.
	Shards []int
	// Err is the last underlying transport failure.
	Err error
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("shard: shards %v unavailable: %v", e.Shards, e.Err)
}
func (e *UnavailableError) Is(target error) bool { return target == core.ErrShardUnavailable }
func (e *UnavailableError) Unwrap() error        { return e.Err }

// IsSharded reports whether dir holds a sharded collection (a SHARDS
// manifest), letting callers pick between nok.Open and shard.Open.
func IsSharded(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, ManifestName))
	return err == nil
}

func shardDir(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d", s))
}

// Create splits the XML collection read from xml across o.Shards stores
// under dir and returns the opened collection.
func Create(dir string, xml io.Reader, o *Options) (*Store, error) {
	n, strat := 4, StrategyHash
	var storeOpts *nok.Options
	if o != nil {
		if o.Shards > 0 {
			n = o.Shards
		}
		if o.Strategy != "" {
			strat = o.Strategy
		}
		storeOpts = o.Store
	}
	if strat != StrategyHash && strat != StrategyPath {
		return nil, fmt.Errorf("shard: unknown strategy %q", strat)
	}
	sp, err := split(xml, n, strat)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	man := &Manifest{
		Version:   manifestVersion,
		Strategy:  strat,
		Shards:    n,
		RootTag:   sp.rootTag,
		RootAttrs: sp.rootAttrs,
		Assign:    sp.assign,
		Routes:    sp.routes,
	}
	st := &Store{dir: dir, man: man, shards: make([]Backend, n)}
	for s := 0; s < n; s++ {
		sub, err := nok.Create(shardDir(dir, s), &sp.docs[s], storeOpts)
		if err != nil {
			st.cleanup(s)
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		st.shards[s] = localBackend{sub}
	}
	if err := saveManifest(dir, man); err != nil {
		st.cleanup(n)
		return nil, err
	}
	return st, nil
}

// cleanup closes the first n shards and removes everything Create built.
func (st *Store) cleanup(n int) {
	for s := 0; s < n; s++ {
		if st.shards[s] != nil {
			_ = st.shards[s].Close()
		}
	}
	for s := range st.shards {
		_ = os.RemoveAll(shardDir(st.dir, s))
	}
}

// CreateFromFile is Create reading the collection from a file.
func CreateFromFile(dir, xmlPath string, o *Options) (*Store, error) {
	f, err := os.Open(xmlPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Create(dir, f, o)
}

// OpenOptions configure OpenWithOptions.
type OpenOptions struct {
	// Store passes through to each locally opened per-shard nok store.
	Store *nok.Options
	// Remote tunes the fault-tolerance stack of the network clients built
	// for shards the manifest places on remote addresses (nil selects the
	// remote package's defaults).
	Remote *remote.Config
}

// Open attaches to a sharded collection created by Create. Shards the
// manifest places on remote addresses are reached through fault-tolerant
// network clients; the rest open locally.
func Open(dir string, opts *nok.Options) (*Store, error) {
	return OpenWithOptions(dir, &OpenOptions{Store: opts})
}

// OpenWithOptions is Open with control over the remote-client
// configuration.
func OpenWithOptions(dir string, o *OpenOptions) (*Store, error) {
	if o == nil {
		o = &OpenOptions{}
	}
	var rcfg remote.Config
	if o.Remote != nil {
		rcfg = *o.Remote
	}
	man, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, man: man, shards: make([]Backend, man.Shards)}
	for s := 0; s < man.Shards; s++ {
		if addr := man.addr(s); addr != "" {
			st.shards[s] = remoteBackend{remote.New(addr, s, rcfg)}
			st.remote = true
			continue
		}
		sub, err := nok.Open(shardDir(dir, s), o.Store)
		if err != nil {
			for i := 0; i < s; i++ {
				_ = st.shards[i].Close()
			}
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		st.shards[s] = localBackend{sub}
	}
	return st, nil
}

// addr returns shard s's remote base URL, "" for local shards.
func (m *Manifest) addr(s int) string {
	if s < len(m.Addrs) {
		return m.Addrs[s]
	}
	return ""
}

// SetShardAddrs rewrites the manifest's address table: addrs[s] == ""
// keeps shard s local, anything else is the base URL of the nokserve
// process serving it. The collection must not be open for writing while
// the manifest is edited. Pass nil to make every shard local again.
func SetShardAddrs(dir string, addrs []string) error {
	man, err := loadManifest(dir)
	if err != nil {
		return err
	}
	if addrs != nil && len(addrs) != man.Shards {
		return fmt.Errorf("shard: %d addresses for %d shards", len(addrs), man.Shards)
	}
	all := true
	for _, a := range addrs {
		if a != "" {
			all = false
		}
	}
	if all {
		addrs = nil
	}
	man.Addrs = addrs
	return saveManifest(dir, man)
}

// Health reports each shard's availability as the coordinator sees it:
// local shards are healthy by construction (a broken local shard fails
// Open), remote shards report the prober's verdict, the breaker state and
// the last observed epoch.
func (st *Store) Health() []nok.ShardHealth {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]nok.ShardHealth, len(st.shards))
	for s, sub := range st.shards {
		h := nok.ShardHealth{Shard: s, Healthy: !st.closed, Epoch: sub.Epoch()}
		if r, ok := sub.(health); ok {
			h.Remote = true
			h.Addr = r.Addr()
			h.Healthy = r.Healthy()
			h.Breaker = r.BreakerState()
		}
		out[s] = h
	}
	return out
}

// Close closes every shard, draining their in-flight queries. The first
// error is returned but all shards are closed regardless.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	var first error
	// Remote backends close first: closing a remote client aborts its
	// in-flight scatters, which releases the local MVCC views the same
	// query pinned. Closing a local store first would wait for those
	// pinned readers — held hostage by a hung remote attempt — for the
	// full attempt timeout.
	for _, sub := range st.shards {
		if _, ok := sub.(remoteBackend); !ok {
			continue
		}
		if err := sub.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, sub := range st.shards {
		if _, ok := sub.(remoteBackend); ok {
			continue
		}
		if err := sub.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumShards returns the shard count.
func (st *Store) NumShards() int { return st.man.Shards }

// Manifest returns a deep copy of the current manifest.
func (st *Store) Manifest() *Manifest {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.man.clone()
}

// clone deep-copies the manifest. The scatter executor takes a private
// copy under the store lock so document inserts/deletes (which renumber
// Assign entries in place) cannot skew an in-flight query's remapping.
func (m *Manifest) clone() *Manifest {
	c := *m
	if m.Routes != nil {
		c.Routes = make(map[string]int, len(m.Routes))
		for k, v := range m.Routes {
			c.Routes[k] = v
		}
	}
	c.Assign = make([][]uint32, len(m.Assign))
	for i, a := range m.Assign {
		c.Assign[i] = append([]uint32(nil), a...)
	}
	c.Addrs = append([]string(nil), m.Addrs...)
	return &c
}

func saveManifest(dir string, m *Manifest) error {
	buf, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(vfs.OS, filepath.Join(dir, ManifestName), append(buf, '\n'), 0o644)
}

func loadManifest(dir string) (*Manifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: not a sharded collection: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, fmt.Errorf("shard: bad manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d not supported", m.Version)
	}
	if m.Shards < 1 || len(m.Assign) != m.Shards {
		return nil, fmt.Errorf("shard: manifest inconsistent: %d shards, %d assignment lists", m.Shards, len(m.Assign))
	}
	if len(m.Addrs) != 0 && len(m.Addrs) != m.Shards {
		return nil, fmt.Errorf("shard: manifest inconsistent: %d shards, %d addresses", m.Shards, len(m.Addrs))
	}
	return &m, nil
}

// routeHash picks the shard for the document with the given global ordinal.
func routeHash(global uint32, shards int) int {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], global)
	h := fnv.New64a()
	_, _ = h.Write(b[:])
	return int(h.Sum64() % uint64(shards))
}

// routeTag picks the shard for a document by its top-level element name,
// assigning unseen names round-robin and recording the choice so later
// documents (and future inserts) with the same name follow them.
func (m *Manifest) routeTag(tag string) int {
	if s, ok := m.Routes[tag]; ok {
		return s
	}
	if m.Routes == nil {
		m.Routes = make(map[string]int)
	}
	s := len(m.Routes) % m.Shards
	m.Routes[tag] = s
	return s
}

// globalToLocal maps a global root-child ordinal to (shard, local ordinal).
// Broadcast ordinals (root attributes, g <= RootAttrs) map to every shard
// unchanged; the second return is false for them.
func (m *Manifest) globalToLocal(g uint32) (shard int, local uint32, routed bool) {
	if int(g) <= m.RootAttrs {
		return 0, g, false
	}
	for s, a := range m.Assign {
		// Binary search: assignment lists are kept sorted.
		lo, hi := 0, len(a)
		for lo < hi {
			mid := (lo + hi) / 2
			if a[mid] < g {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(a) && a[lo] == g {
			return s, uint32(m.RootAttrs + lo + 1), true
		}
	}
	return -1, 0, true
}

// localToGlobal maps shard s's local root-child ordinal back to the global
// one. Broadcast ordinals pass through unchanged.
func (m *Manifest) localToGlobal(s int, local uint32) (uint32, bool) {
	if int(local) <= m.RootAttrs {
		return local, true
	}
	k := int(local) - m.RootAttrs - 1
	if k < 0 || k >= len(m.Assign[s]) {
		return 0, false
	}
	return m.Assign[s][k], true
}
