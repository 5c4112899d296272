// Package nok is a native XML store with succinct physical storage and
// next-of-kin (NoK) path-query evaluation, reproducing
//
//	N. Zhang, V. Kacholia, M. T. Özsu.
//	"A Succinct Physical Storage Scheme for Efficient Evaluation of Path
//	Queries in XML." ICDE 2004.
//
// A Store persists an XML document as:
//
//   - a paged *string representation* of the element structure — one
//     2-byte symbol per start tag, one byte per end tag, with per-page
//     (st, lo, hi) level summaries that let navigation skip pages;
//   - an out-of-line value data file;
//   - four B+ trees (tag-name, hashed-value, Dewey-ID, and path indexes).
//
// Path queries (a practical XPath fragment: '/', '//', '*', '@attr',
// predicates with value comparisons, following-sibling) are evaluated by
// NoK pattern matching: the query's pattern tree is partitioned into
// next-of-kin subtrees connected by global axes; each NoK subtree is
// matched navigationally in a single pass over the relevant pages, and the
// partial results are recombined with interval-based structural joins.
//
// Quick start:
//
//	st, err := nok.CreateFromFile("bib.db", "bib.xml", nil)
//	...
//	results, err := st.Query(`//book[author/last="Stevens"][price<100]`)
//	for _, r := range results {
//		fmt.Println(r.ID, r.Tag, r.Value)
//	}
//
// The package also exposes streaming evaluation (Stream) that runs the
// same query language over any XML io.Reader in one pass with bounded
// memory — the string representation is exactly a SAX event stream, so
// the matcher does not care whether pages come from disk or from a socket.
package nok

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"nok/internal/core"
	"nok/internal/dewey"
	"nok/internal/obs"
	"nok/internal/pattern"
	"nok/internal/stream"
)

// Options configure store creation and opening.
type Options struct {
	// PageSize is the page size in bytes for the string tree and index
	// files (default 4096, the paper's running example).
	PageSize int
	// PoolPages is the buffer-pool capacity per file (default 256).
	PoolPages int
	// ReservePct is the per-page free-space reserve for future updates
	// (default 20, as in §4.2's example).
	ReservePct int
}

func (o *Options) toCore() *core.Options {
	if o == nil {
		return nil
	}
	return &core.Options{PageSize: o.PageSize, PoolPages: o.PoolPages, ReservePct: o.ReservePct}
}

// Strategy selects how NoK starting points are located; see §3 and §6.2
// of the paper.
type Strategy = core.Strategy

// Starting-point strategies.
const (
	// StrategyAuto applies the paper's heuristic: value index when an
	// equality constraint exists, otherwise tag index when selective
	// enough, otherwise a sequential scan.
	StrategyAuto = core.StrategyAuto
	// StrategyScan always scans the document in order.
	StrategyScan = core.StrategyScan
	// StrategyTagIndex drives starting points from the tag-name B+ tree.
	StrategyTagIndex = core.StrategyTagIndex
	// StrategyValueIndex drives starting points from the value B+ tree.
	StrategyValueIndex = core.StrategyValueIndex
	// StrategyPathIndex drives starting points from the path index (the
	// paper's §8 extension); outside concrete '/'-rooted chains it
	// degrades to StrategyAuto.
	StrategyPathIndex = core.StrategyPathIndex
	// StrategySkipped is never requested: QueryStats.StrategyUsed records
	// it for partitions whose matching was short-circuited because a
	// linked child partition was empty.
	StrategySkipped = core.StrategySkipped
)

// QueryOptions tune one query evaluation.
type QueryOptions struct {
	// Strategy forces a starting-point strategy (default StrategyAuto,
	// which consults the cost-based planner when the store has a fresh
	// statistics synopsis and otherwise applies the paper's §6.2
	// heuristic).
	Strategy Strategy
	// DisablePageSkip turns off the (st,lo,hi) header-driven page skipping
	// during navigation — an ablation switch for measuring its benefit.
	DisablePageSkip bool
	// DisablePlanner keeps StrategyAuto on the paper's heuristic even when
	// planner statistics exist — an ablation switch and an escape hatch.
	DisablePlanner bool
	// DisableParallel forces the bottom-up phase onto one goroutine even
	// when the planner judges the query worth running NoK partitions
	// concurrently — an ablation switch and an escape hatch.
	DisableParallel bool
	// AllowPartial opts a scatter-gather query into degraded partial
	// results: when a remote shard is unavailable, the merged answer from
	// the reachable shards is returned with QueryStats.Degraded set and
	// the missing shards listed, instead of failing with
	// ErrShardUnavailable. Results that do come back are always correct
	// matches — a degraded answer can only be missing rows, never contain
	// wrong ones. Ignored by single-store evaluation.
	AllowPartial bool
}

func (o *QueryOptions) toCore() *core.QueryOptions {
	if o == nil {
		return nil
	}
	return &core.QueryOptions{
		Strategy:        o.Strategy,
		DisablePageSkip: o.DisablePageSkip,
		DisablePlanner:  o.DisablePlanner,
		DisableParallel: o.DisableParallel,
	}
}

// Result is one query match.
type Result struct {
	// ID is the node's Dewey identifier in dotted form; the document root
	// is "0" and its second child "0.2".
	ID string
	// Tag is the element name ("@name" for attributes).
	Tag string
	// Value is the node's text content; HasValue distinguishes an empty
	// value from no value.
	Value    string
	HasValue bool
}

// QueryStats mirrors the evaluation counters of one query (see the
// core package for field semantics).
type QueryStats = core.QueryStats

// Store is an opened NoK database directory.
//
// A Store is safe for concurrent use, and reads never block on writes:
// every query pins the committed MVCC snapshot current at its start and
// evaluates against that immutable state while Insert and Delete build
// the next epoch off to the side (copy-on-write pages, fresh index
// files) and publish it atomically. Mutations serialize against each
// other; superseded snapshots are garbage-collected when their last
// reader releases them.
type Store struct {
	// mu serializes administrative operations (Insert, Delete, Verify,
	// Close) at the Store level. Queries do not take it —
	// they pin a snapshot instead.
	mu sync.RWMutex
	db *core.DB

	// closed flips under mu in Close; core's own close then drains
	// in-flight snapshot readers before releasing the pager.
	closed bool
}

// ErrClosed is returned by Store methods called after Close.
var ErrClosed = errors.New("nok: store is closed")

// mapClosed translates core's closed error into the package's own.
func mapClosed(err error) error {
	if errors.Is(err, core.ErrClosed) {
		return ErrClosed
	}
	return err
}

// acquire pins the current committed snapshot.
func (s *Store) acquire() (*core.Snapshot, error) {
	v, err := s.db.Acquire()
	if err != nil {
		return nil, mapClosed(err)
	}
	return v, nil
}

// Create builds a new store at dir from an XML document.
func Create(dir string, xml io.Reader, opts *Options) (*Store, error) {
	db, err := core.LoadXML(dir, xml, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Store{db: db}, nil
}

// CreateFromFile builds a new store at dir from an XML file.
func CreateFromFile(dir, xmlPath string, opts *Options) (*Store, error) {
	f, err := os.Open(xmlPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Create(dir, f, opts)
}

// Open attaches to an existing store directory.
func Open(dir string, opts *Options) (*Store, error) {
	db, err := core.Open(dir, opts.toCore())
	if err != nil {
		return nil, err
	}
	return &Store{db: db}, nil
}

// Close releases the store. It blocks until in-flight queries drain: each
// holds a reference on its pinned snapshot, and core's close waits for the
// last reference before releasing the pager. Calls racing Close either
// finish normally on their pinned snapshot or fail with ErrClosed — never
// a torn read. Closing twice is a no-op.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.db.Close()
}

// NodeCount returns the number of element nodes (attributes are modeled
// as child nodes and included).
func (s *Store) NodeCount() uint64 {
	v, err := s.acquire()
	if err != nil {
		return 0
	}
	defer v.Release()
	return v.NodeCount()
}

// Query evaluates a path expression and returns matches in document order.
func (s *Store) Query(expr string) ([]Result, error) {
	rs, _, err := s.QueryWithOptions(expr, nil)
	return rs, err
}

// QueryContext is Query with a context: evaluation stops at the next
// cancellation checkpoint once ctx is cancelled or its deadline passes,
// returning ctx.Err().
func (s *Store) QueryContext(ctx context.Context, expr string) ([]Result, error) {
	rs, _, err := s.QueryWithOptionsContext(ctx, expr, nil)
	return rs, err
}

// QueryWithOptions evaluates a path expression with explicit options and
// returns evaluation statistics alongside the results.
func (s *Store) QueryWithOptions(expr string, opts *QueryOptions) ([]Result, *QueryStats, error) {
	return s.QueryWithOptionsContext(context.Background(), expr, opts)
}

// QueryWithOptionsContext is QueryWithOptions with a context threaded down
// into the matching loops: a long evaluation notices cancellation within a
// few dozen subject-node visits and aborts with ctx.Err().
func (s *Store) QueryWithOptionsContext(ctx context.Context, expr string, opts *QueryOptions) ([]Result, *QueryStats, error) {
	v, err := s.acquire()
	if err != nil {
		return nil, nil, err
	}
	defer v.Release()
	return queryOn(v, ctx, expr, opts, nil)
}

// queryOn evaluates expr against one pinned snapshot and resolves the
// matches on that same snapshot, so a concurrent commit can never mix
// epochs within one result set.
func queryOn(v *core.Snapshot, ctx context.Context, expr string, opts *QueryOptions, tr *obs.Trace) ([]Result, *QueryStats, error) {
	co := opts.toCore()
	if co == nil {
		co = &core.QueryOptions{}
	}
	co.Ctx = ctx
	co.Trace = tr
	ms, stats, err := v.Query(expr, co)
	if err != nil {
		return nil, nil, mapClosed(err)
	}
	return buildResults(v, ms), stats, nil
}

// buildResults resolves matches to Results against the snapshot that
// produced them.
func buildResults(v *core.Snapshot, ms []core.Match) []Result {
	out := make([]Result, len(ms))
	for i, m := range ms {
		r := Result{ID: m.ID.String()}
		if sym, err := v.Tree.SymAt(m.Pos); err == nil {
			if name, ok := v.Tags.Name(sym); ok {
				r.Tag = name
			}
		}
		if val, ok, err := v.NodeValue(m.ID); err == nil && ok {
			r.Value, r.HasValue = val, true
		}
		out[i] = r
	}
	return out
}

// QueryAnalyze evaluates a path expression with tracing enabled and returns,
// alongside the results and statistics, the executed plan rendered as an
// indented phase tree with per-phase timings and counters — the library form
// of EXPLAIN ANALYZE.
func (s *Store) QueryAnalyze(expr string, opts *QueryOptions) ([]Result, *QueryStats, string, error) {
	v, err := s.acquire()
	if err != nil {
		return nil, nil, "", err
	}
	defer v.Release()
	tr := obs.New("query " + expr)
	rs, stats, err := queryOn(v, context.Background(), expr, opts, tr)
	tr.Finish()
	if err != nil {
		return nil, nil, "", err
	}
	root := tr.Root()
	root.Set("results", len(rs))
	root.Set("pages-scanned", stats.PagesScanned)
	root.Set("pages-skipped", stats.PagesSkipped)
	return rs, stats, tr.String(), nil
}

// ExplainAnalyze executes a query against the store and returns the executed
// plan: each evaluation phase (parse, partition, starting-point lookup, NoK
// matching per partition, structural joins) with its duration, the strategy
// chosen, and page-level I/O counters. The query's results are discarded;
// use QueryAnalyze to get both.
func ExplainAnalyze(st *Store, expr string) (string, error) {
	_, _, plan, err := st.QueryAnalyze(expr, nil)
	return plan, err
}

// Plan renders the cost-based plan for a query without executing it (the
// EXPLAIN to QueryAnalyze's EXPLAIN ANALYZE): per-partition access paths
// with estimated starting points, matches and pages, and the bottom-up
// evaluation order.
func (s *Store) Plan(expr string) (string, error) {
	v, err := s.acquire()
	if err != nil {
		return "", err
	}
	defer v.Release()
	return v.PlanText(expr)
}

// ProvablyEmpty reports whether statistics alone prove the query returns
// nothing from this store: a concrete tag test naming a tag the store has
// zero of, or a non-numeric equality literal whose synopsis
// count-min estimate is zero. The reason string names the proof. The
// sharded executor (internal/shard) uses this to skip shards without
// touching their pages.
func (s *Store) ProvablyEmpty(expr string) (bool, string, error) {
	t, err := pattern.Parse(expr)
	if err != nil {
		return false, "", err
	}
	v, err := s.acquire()
	if err != nil {
		return false, "", err
	}
	defer v.Release()
	empty, reason := v.ProvablyEmpty(t)
	return empty, reason, nil
}

// SynopsisInfo summarizes the store's statistics synopsis (the planner's
// input): totals and the top-n tags and root-to-node paths by
// cardinality. See internal/core for field semantics.
type SynopsisInfo = core.SynopsisInfo

// Synopsis reports the statistics synopsis with the top-n tags and paths.
func (s *Store) Synopsis(n int) SynopsisInfo {
	v, err := s.acquire()
	if err != nil {
		return SynopsisInfo{}
	}
	defer v.Release()
	return v.SynopsisInfo(n)
}

// MetricsText renders the process-wide metrics registry (pager I/O, B+-tree
// and value-store operations, structural-join and query counters) in
// Prometheus text exposition format.
func MetricsText() string {
	var b strings.Builder
	obs.Default.WritePrometheus(&b)
	return b.String()
}

// MetricsJSON renders the process-wide metrics registry as a JSON object
// keyed by metric name.
func MetricsJSON() string {
	var b strings.Builder
	obs.Default.WriteJSON(&b)
	return b.String()
}

// Value returns the text content of the node with the given Dewey ID.
func (s *Store) Value(id string) (string, bool, error) {
	did, err := dewey.Parse(id)
	if err != nil {
		return "", false, err
	}
	v, err := s.acquire()
	if err != nil {
		return "", false, err
	}
	defer v.Release()
	return v.NodeValue(did)
}

// Insert appends an XML fragment (one root element) as the last child of
// the node identified by parentID: a one-fragment InsertBatch, whose
// *FragmentError it unwraps (there is only one possible offender).
// Indexes are rebuilt; see the paper's §4.1 note on Dewey-ID index
// reconstruction.
func (s *Store) Insert(parentID string, fragment io.Reader) error {
	buf, err := io.ReadAll(fragment)
	if err != nil {
		return err
	}
	err = s.InsertBatch(parentID, [][]byte{buf})
	var fe *FragmentError
	if errors.As(err, &fe) {
		return fe.Err
	}
	return err
}

// FragmentError reports which fragment of an InsertBatch failed; callers
// can drop the offender (by Index) and retry the rest of the batch.
type FragmentError = core.FragmentError

// InsertBatch appends every fragment, in order, as new last children of
// the node with the given parent ID — one atomic commit publishing ONE new
// epoch, with the per-commit fsync/rename cost paid once for the whole
// batch (group commit). Each fragment must contain exactly one root
// element; a malformed fragment aborts the batch before any mutation and
// is reported as a *FragmentError. The statistics synopsis is maintained
// incrementally, so the planner stays on fresh statistics throughout a
// sustained append stream.
func (s *Store) InsertBatch(parentID string, fragments [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	id, err := dewey.Parse(parentID)
	if err != nil {
		return err
	}
	if len(fragments) == 0 {
		return nil
	}
	readers := make([]io.Reader, len(fragments))
	for i, f := range fragments {
		readers[i] = bytes.NewReader(f)
	}
	return mapClosed(s.db.InsertFragmentBatch(id, readers))
}

// Delete removes the node with the given Dewey ID and its whole subtree.
// Following siblings are renumbered.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	did, err := dewey.Parse(id)
	if err != nil {
		return err
	}
	return mapClosed(s.db.DeleteSubtree(did))
}

// Stats summarizes the store's physical layout.
type Stats struct {
	Nodes       uint64
	Pages       int
	MaxDepth    int
	TreeBytes   uint64 // size of the string representation
	ValueBytes  int64  // size of the value data file
	HeaderBytes int    // in-RAM page-header table (§4.2)
}

// Stats returns the store's layout summary.
func (s *Store) Stats() Stats {
	v, err := s.acquire()
	if err != nil {
		return Stats{}
	}
	defer v.Release()
	return Stats{
		Nodes:       v.Tree.NodeCount(),
		Pages:       v.Tree.NumPages(),
		MaxDepth:    v.Tree.MaxLevel(),
		TreeBytes:   v.Tree.TokenBytes(),
		ValueBytes:  v.Values.Size(),
		HeaderBytes: v.Tree.HeaderBytes(),
	}
}

// TagCount returns how many nodes carry the given tag name.
func (s *Store) TagCount(name string) uint64 {
	v, err := s.acquire()
	if err != nil {
		return 0
	}
	defer v.Release()
	return v.TagCount(name)
}

// ErrShardUnavailable is returned (wrapped) by scatter-gather queries that
// needed an unreachable shard and were not allowed to return partial
// results (QueryOptions.AllowPartial). The server maps it to HTTP 503.
var ErrShardUnavailable = core.ErrShardUnavailable

// ShardHealth reports one shard's availability as seen by the
// scatter-gather executor; see internal/core for field semantics.
type ShardHealth = core.ShardHealth

// ErrNeedsRecovery is returned by Insert/Delete after an update
// transaction failed midway: the in-memory state is unreliable and further
// mutations are refused. Queries still serve the (still-consistent) cached
// state; close and reopen the store to roll back to the last commit.
var ErrNeedsRecovery = core.ErrNeedsRecovery

// RecoveryInfo reports what Open had to repair to bring the store back to
// its last committed state (see internal/core).
type RecoveryInfo = core.RecoveryInfo

// Recovery reports what Open repaired. All-zero means the store was
// cleanly committed.
func (s *Store) Recovery() RecoveryInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.db.Recovery()
}

// Epoch returns the store's committed epoch: 1 after the initial load,
// bumped by every committed Insert/Delete and by nothing else — a rejected
// mutation leaves it unchanged. Two reads of the same epoch are guaranteed
// to observe identical store state, which makes the epoch the result-cache
// key (see CacheFingerprint).
func (s *Store) Epoch() uint64 {
	v, err := s.acquire()
	if err != nil {
		return 0
	}
	defer v.Release()
	return v.Epoch()
}

// CacheFingerprint names the state a cached answer for expr depends on:
// for one document that is the whole store, so the committed epoch.
func (s *Store) CacheFingerprint(expr string) string {
	return strconv.FormatUint(s.Epoch(), 10)
}

// Health reports per-shard availability; a plain store has no shards.
func (s *Store) Health() []ShardHealth { return nil }

// MVCCInfo reports the multi-version machinery's state: committed epoch,
// live page-table versions, reader pins, and the physical-page accounting
// of the copy-on-write tree file. See internal/core for field semantics.
type MVCCInfo = core.MVCCInfo

// MVCC summarizes the store's snapshot and page-version state.
func (s *Store) MVCC() MVCCInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return MVCCInfo{}
	}
	return s.db.MVCCInfo()
}

// Snapshot is a pinned, immutable view of the store at one committed
// epoch: every read through it observes exactly that state no matter how
// many mutations commit concurrently. Release it when done — a held
// snapshot keeps its epoch's pages and files alive (and its disk space
// unreclaimed).
type Snapshot struct {
	v        *core.Snapshot
	released atomic.Bool
}

// Snapshot pins the store's current committed state. The caller must
// Release it.
func (s *Store) Snapshot() (*Snapshot, error) {
	v, err := s.acquire()
	if err != nil {
		return nil, err
	}
	return &Snapshot{v: v}, nil
}

// Release unpins the snapshot; the last release of a superseded epoch
// garbage-collects its files. Releasing twice is a no-op.
func (sn *Snapshot) Release() {
	if !sn.released.Swap(true) {
		sn.v.Release()
	}
}

// Epoch returns the committed epoch this snapshot observes.
func (sn *Snapshot) Epoch() uint64 { return sn.v.Epoch() }

// NodeCount returns the snapshot's element-node count.
func (sn *Snapshot) NodeCount() uint64 {
	if sn.released.Load() {
		return 0
	}
	return sn.v.NodeCount()
}

// Query evaluates a path expression against the pinned state.
func (sn *Snapshot) Query(expr string) ([]Result, error) {
	rs, _, err := sn.QueryWithOptionsContext(context.Background(), expr, nil)
	return rs, err
}

// QueryWithOptionsContext evaluates a path expression against the pinned
// state with explicit options and a context.
func (sn *Snapshot) QueryWithOptionsContext(ctx context.Context, expr string, opts *QueryOptions) ([]Result, *QueryStats, error) {
	if sn.released.Load() {
		return nil, nil, ErrClosed
	}
	return queryOn(sn.v, ctx, expr, opts, nil)
}

// ProvablyEmpty reports whether statistics alone prove the query returns
// nothing from the pinned state; see Store.ProvablyEmpty. The sharded
// executor prunes and evaluates on the same pinned snapshot so the two
// decisions can never observe different epochs.
func (sn *Snapshot) ProvablyEmpty(expr string) (bool, string, error) {
	t, err := pattern.Parse(expr)
	if err != nil {
		return false, "", err
	}
	if sn.released.Load() {
		return false, "", ErrClosed
	}
	empty, reason := sn.v.ProvablyEmpty(t)
	return empty, reason, nil
}

// Value returns the text content of the node with the given Dewey ID in
// the pinned state.
func (sn *Snapshot) Value(id string) (string, bool, error) {
	did, err := dewey.Parse(id)
	if err != nil {
		return "", false, err
	}
	if sn.released.Load() {
		return "", false, ErrClosed
	}
	return sn.v.NodeValue(did)
}

// VerifyResult summarizes a Verify run; see internal/core for field
// semantics.
type VerifyResult = core.VerifyResult

// VerifyIssue is one problem Verify found.
type VerifyIssue = core.VerifyIssue

// Verify checks the store's integrity. The quick form (deep=false) checks
// the commit manifest and cross-component counts; deep additionally
// validates every page checksum, the balanced-parenthesis structure, all
// B+ tree leaf chains, every value record, and resolves every Dewey-index
// entry. Verify takes the store's read lock: queries proceed, mutations
// wait.
func (s *Store) Verify(deep bool) *VerifyResult {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return &VerifyResult{Deep: deep, Issues: []VerifyIssue{{Component: "store", Err: ErrClosed}}}
	}
	return s.db.Verify(deep)
}

// ErrStreamUnsupported is returned by Stream for patterns that cannot be
// evaluated in one pass with bounded memory (the following axis).
var ErrStreamUnsupported = stream.ErrUnsupported

// Stream evaluates a path expression over streaming XML in a single pass,
// without building a store — the §4.2 observation that the storage format
// *is* the SAX stream, made operational. Matches are delivered to emit as
// soon as their candidate subtree closes; returning false stops early.
func Stream(xml io.Reader, expr string, emit func(Result) bool) error {
	t, err := pattern.Parse(expr)
	if err != nil {
		return err
	}
	_, err = stream.MatchFunc(xml, t, func(r stream.Result) bool {
		return emit(Result{ID: r.ID.String(), Value: r.Value, HasValue: r.Value != ""})
	})
	return err
}

// StreamAll collects every streaming match (sorted, deduplicated).
func StreamAll(xml io.Reader, expr string) ([]Result, error) {
	t, err := pattern.Parse(expr)
	if err != nil {
		return nil, err
	}
	rs, _, err := stream.Match(xml, t)
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{ID: r.ID.String(), Value: r.Value, HasValue: r.Value != ""}
	}
	return out, nil
}

// ParseQuery validates a path expression without evaluating it, returning
// a descriptive error for malformed input.
func ParseQuery(expr string) error {
	_, err := pattern.Parse(expr)
	return err
}

// Explain reports how a query would be partitioned and evaluated: the
// pattern tree, its NoK partitions, and the local/global axis counts —
// useful for understanding why a query is fast or slow.
func Explain(expr string) (string, error) {
	t, err := pattern.Parse(expr)
	if err != nil {
		return "", err
	}
	parts := pattern.Partition(t)
	local, global := pattern.CountAxes(t)
	out := fmt.Sprintf("pattern: %s\naxes: %d local, %d global\npartitions: %d\n",
		t.String(), local, global, len(parts))
	for _, p := range parts {
		out += "  " + p.String() + "\n"
	}
	return out, nil
}
