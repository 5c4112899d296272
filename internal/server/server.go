// Package server is the concurrent query service over an open nok.Store:
// HTTP endpoints for path queries, plan inspection, value lookup and store
// stats, backed by a bounded worker pool with admission control, an LRU
// result cache invalidated by store mutations, per-request deadlines
// threaded into the matching loops as context cancellation, and full
// metrics exposure through the internal/obs registry.
//
// The paper's storage scheme is built for repeated path-query evaluation
// over a loaded document; this package is the long-lived process that makes
// the repetition pay: hot pages stay in the buffer pool, repeated
// expressions hit the result cache, and overload is shed at admission
// instead of queueing without bound.
//
// Endpoints:
//
//	GET    /query?q=EXPR[&strategy=S][&limit=N][&timeout=D][&stats=1][&partial=0|1]
//	GET    /scatter?q=EXPR[&strategy=S][&planner=0][&pageskip=0][&parallel=0]   (binary)
//	GET    /explain?q=EXPR[&analyze=1]
//	GET    /plan?q=EXPR
//	GET    /value/{id}
//	POST   /insert?parent=ID   (one XML fragment in the body)
//	POST   /ingest[?wait=0]    (stream of XML fragments in the body)
//	DELETE /node/{id}
//	GET    /stats[?tag=NAME][&top=N]
//	GET    /metrics[?exemplars=1]
//	GET    /healthz[?deep=1]
//	GET    /debug/queries[?n=N]
//	GET    /debug/ingest[?n=N]
//	GET    /debug/pprof/...        (only with Config.EnablePprof)
//
// Every /query response carries an X-Nok-Query-Id header naming the
// telemetry record the evaluation produced; /debug/queries returns the
// flight recorder's recent and slowest records (with rendered plans), and
// /metrics?exemplars=1 switches to OpenMetrics exposition whose latency
// buckets carry query-ID exemplars — three ways to get from "p99 is bad"
// to the exact query that caused it.
//
// /healthz?deep=1 runs a full store verification (every page checksum,
// structural invariants, index cross-references). A failed verification —
// or a mutation that dies mid-transaction — flips the server into degraded
// mode: queries keep serving the last committed state, mutations are
// refused with 503, and /healthz reports the reason until the operator
// restarts the process (recovery runs at open).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"nok"
	"nok/internal/buildinfo"
	"nok/internal/ingest"
	"nok/internal/obs"
	"nok/internal/pattern"
	"nok/internal/telemetry"
)

// Server-wide metrics, registered in the process registry so /metrics
// exposes them alongside the storage-layer counters.
var (
	mRequests     = obs.Default.Counter("nokserve_requests_total", "HTTP requests served")
	mReqSeconds   = obs.Default.Histogram("nokserve_request_seconds", "end-to-end HTTP request latency in seconds", obs.LatencyBuckets)
	mCacheHits    = obs.Default.Counter("nokserve_cache_hits_total", "query-result cache hits")
	mCacheMisses  = obs.Default.Counter("nokserve_cache_misses_total", "query-result cache misses")
	mCacheEntries = obs.Default.Gauge("nokserve_cache_entries", "query-result cache resident entries")
	mInflight     = obs.Default.Gauge("nokserve_inflight_queries", "queries currently holding worker slots")
	mQueued       = obs.Default.Gauge("nokserve_queued_requests", "requests waiting for a worker slot")
	mRejected     = obs.Default.Counter("nokserve_rejected_total", "requests rejected by admission control (HTTP 429)")
	mCanceled     = obs.Default.Counter("nokserve_canceled_total", "queries abandoned by client cancellation")
	mTimeouts     = obs.Default.Counter("nokserve_deadline_exceeded_total", "queries that hit their deadline (HTTP 504)")
	mMutations    = obs.Default.Counter("nokserve_mutations_total", "insert/delete requests applied")
	mDegraded     = obs.Default.Gauge("nokserve_degraded", "1 while the server refuses mutations after a failed verification or update")
	mPanics       = obs.Default.Counter("nok_panics_total", "handler panics recovered into 500 responses")
	mQueryTimeout = obs.Default.Counter("nok_query_timeouts_total", "queries that hit their per-query deadline (HTTP 504)")
	mShardUnavail = obs.Default.Counter("nokserve_shard_unavailable_total", "queries refused with 503 because a required shard was unreachable")
	mPartial      = obs.Default.Counter("nokserve_degraded_results_total", "queries answered with degraded partial results")
)

// Config tunes the service; zero values select the documented defaults.
type Config struct {
	// Workers bounds concurrent query evaluations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker before admission
	// control rejects with 429 (default 2×Workers).
	QueueDepth int
	// CacheEntries sizes the LRU result cache; negative disables it
	// (default 1024).
	CacheEntries int
	// QueryTimeout is the per-request evaluation deadline ceiling; a
	// request may ask for less via ?timeout= but never more
	// (default 10s).
	QueryTimeout time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profile endpoints expose timing side-channels and can be
	// heavy, so they are opt-in (nokserve -debug).
	EnablePprof bool
	// AllowPartial makes degraded partial results the default for /query
	// against a sharded backend with unreachable shards (still
	// overridable per request with ?partial=0/1). Off by default:
	// completeness beats availability unless the operator says otherwise.
	AllowPartial bool
	// Ingest tunes the POST /ingest group-commit pipeline (batch size and
	// interval, in-flight budget). Zero values take the ingest package
	// defaults.
	Ingest ingest.Options
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 10 * time.Second
	}
	return c
}

// Backend is the store surface the server needs. Both nok.Store (one
// document) and shard.Store (a scatter-gather collection) implement it, so
// one serving layer fronts either; nokserve picks by probing for a SHARDS
// manifest. InsertBatch is the only insert: POST /insert is a
// one-fragment batch, and the Backend itself is the POST /ingest
// pipeline's ingest.Target, so it must honour that retry contract.
type Backend interface {
	QueryWithOptionsContext(ctx context.Context, expr string, opts *nok.QueryOptions) ([]nok.Result, *nok.QueryStats, error)
	QueryAnalyze(expr string, opts *nok.QueryOptions) ([]nok.Result, *nok.QueryStats, string, error)
	Plan(expr string) (string, error)
	Value(id string) (string, bool, error)
	InsertBatch(parentID string, frags [][]byte) error
	Delete(id string) error
	Stats() nok.Stats
	NodeCount() uint64
	Epoch() uint64
	Synopsis(n int) nok.SynopsisInfo
	Verify(deep bool) *nok.VerifyResult
	Close() error
	// MVCC is the snapshot/page-version accounting /stats reports (the
	// sharded store aggregates it across shards).
	MVCC() nok.MVCCInfo
	// TagCount answers /stats?tag=NAME: one tag's cardinality without
	// shipping the whole synopsis.
	TagCount(name string) uint64
	// Health is the per-shard availability (address, prober verdict,
	// breaker state, last epoch) /stats exposes; nil for a plain store.
	Health() []nok.ShardHealth
	CacheFingerprinter
	ProvableEmptier
}

// CacheFingerprinter names the store state a query's cached answer
// depends on. The plain store returns its committed epoch; the sharded
// store returns the participating (shard, epoch) pairs, so a write to
// shard 3 does not evict shard 0's cached results. An empty fingerprint
// marks the query uncachable.
type CacheFingerprinter interface {
	CacheFingerprint(expr string) string
}

// ProvableEmptier is what the /scatter handler uses for server-side
// pruning: a shard that can prove from its statistics synopsis that a
// pattern cannot match returns a pruned frame without evaluating, so
// coordinator-side pruning costs no extra round trip.
type ProvableEmptier interface {
	ProvablyEmpty(expr string) (bool, string, error)
}

// Server wraps an open store behind HTTP. It implements http.Handler;
// wire it into an http.Server (see cmd/nokserve) or httptest for tests.
type Server struct {
	store Backend
	cfg   Config
	pool  *pool
	cache *resultCache
	mux   *http.ServeMux

	// ingest is the shared group-commit pipeline behind POST /ingest.
	// Sharing one pipeline across requests is the point: concurrent
	// clients' documents coalesce into the same commits.
	ingest *ingest.Pipeline

	lifeMu   sync.Mutex
	draining bool
	wg       sync.WaitGroup

	// degradedReason, when non-empty, puts the server in read-only mode:
	// a deep verification failed or an update transaction died midway. The
	// committed on-disk state is intact (recovery runs at next open), so
	// queries continue; mutations get 503.
	degMu          sync.Mutex
	degradedReason string
}

// New builds a Server over an open single-document store. The store stays
// owned by the server from here on: Shutdown closes it after draining.
func New(store *nok.Store, cfg Config) *Server {
	return NewBackend(store, cfg)
}

// NewBackend builds a Server over any Backend (see New for single stores;
// pass a shard.Store to serve a sharded collection).
func NewBackend(store Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		store:  store,
		cfg:    cfg,
		pool:   newPool(cfg.Workers, cfg.QueueDepth),
		cache:  newResultCache(cfg.CacheEntries),
		mux:    http.NewServeMux(),
		ingest: ingest.NewPipeline(store, cfg.Ingest),
	}
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /scatter", s.handleScatter)
	s.mux.HandleFunc("GET /explain", s.handleExplain)
	s.mux.HandleFunc("GET /plan", s.handlePlan)
	s.mux.HandleFunc("GET /value/{id}", s.handleValue)
	s.mux.HandleFunc("POST /insert", s.handleInsert)
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("DELETE /node/{id}", s.handleDelete)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("GET /debug/ingest", s.handleDebugIngest)
	if cfg.EnablePprof {
		// pprof.Index dispatches /debug/pprof/{goroutine,heap,...} itself;
		// the fixed-path handlers cover the endpoints Index doesn't.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// setDegraded flips the server into read-only mode (idempotent; the first
// reason wins).
func (s *Server) setDegraded(reason string) {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	if s.degradedReason == "" {
		s.degradedReason = reason
		mDegraded.Set(1)
	}
}

// Degraded reports whether the server is refusing mutations, and why.
func (s *Server) Degraded() (bool, string) {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	return s.degradedReason != "", s.degradedReason
}

// ServeHTTP dispatches to the endpoint handlers through the
// panic-recovery middleware: an evaluator panic becomes a 500 with a
// logged stack and a nok_panics_total tick instead of killing the whole
// process (one bad query must not take down the shard for everyone).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	begin := time.Now()
	mRequests.Inc()
	rw := &trackingWriter{ResponseWriter: w}
	defer func() {
		if p := recover(); p != nil {
			if p == http.ErrAbortHandler {
				// net/http's own sentinel for deliberately aborted
				// responses; suppressing it would hide client aborts.
				panic(p)
			}
			mPanics.Inc()
			log.Printf("nokserve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !rw.wrote {
				writeError(rw, http.StatusInternalServerError, "internal error: %v", p)
			}
		}
		mReqSeconds.Observe(time.Since(begin).Seconds())
	}()
	s.mux.ServeHTTP(rw, r)
}

// trackingWriter records whether a handler already started its response,
// so the panic recovery knows whether a 500 can still be written.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *trackingWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Shutdown drains the server: new requests are refused (503 on /healthz,
// /query and friends), in-flight queries run to completion (or until ctx
// expires), and the store is closed. After Shutdown the server is done.
func (s *Server) Shutdown(ctx context.Context) error {
	s.lifeMu.Lock()
	already := s.draining
	s.draining = true
	s.lifeMu.Unlock()
	if already {
		return nil
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Drain the ingest pipeline first: Close flushes anything buffered, so
	// accepted-but-uncommitted documents land before the store goes away.
	if err := s.ingest.Close(); err != nil {
		s.store.Close()
		return err
	}
	return s.store.Close()
}

// CacheHitRatio reports the lifetime cache hit ratio (for benchmarks and
// examples; production should read the counters from /metrics).
func (s *Server) CacheHitRatio() float64 { return s.cache.ratio() }

// Inflight reports queries currently holding worker slots.
func (s *Server) Inflight() int64 { return s.pool.Inflight() }

// beginRequest registers an in-flight request unless the server is
// draining.
func (s *Server) beginRequest() bool {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	if s.draining {
		return false
	}
	s.wg.Add(1)
	return true
}

// ---- responses --------------------------------------------------------------

type resultJSON struct {
	ID       string `json:"id"`
	Tag      string `json:"tag,omitempty"`
	Value    string `json:"value,omitempty"`
	HasValue bool   `json:"has_value"`
}

type queryResponse struct {
	Query     string       `json:"query"`
	Count     int          `json:"count"`
	Results   []resultJSON `json:"results"`
	Truncated bool         `json:"truncated,omitempty"`
	Cached    bool         `json:"cached"`
	ElapsedMS float64      `json:"elapsed_ms"`
	// Degraded marks a partial answer: the listed shards were
	// unreachable and their rows are missing (the rows present are
	// correct). Only set when the request opted in via ?partial=1 or the
	// server's -allow-partial default.
	Degraded      bool            `json:"degraded,omitempty"`
	MissingShards []int           `json:"missing_shards,omitempty"`
	Stats         *nok.QueryStats `json:"stats,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// ---- handlers ---------------------------------------------------------------

// parseStrategy maps the ?strategy= parameter to a nok.Strategy.
func parseStrategy(s string) (nok.Strategy, error) {
	switch s {
	case "", "auto":
		return nok.StrategyAuto, nil
	case "scan":
		return nok.StrategyScan, nil
	case "tag":
		return nok.StrategyTagIndex, nil
	case "value":
		return nok.StrategyValueIndex, nil
	case "path":
		return nok.StrategyPathIndex, nil
	default:
		return nok.StrategyAuto, fmt.Errorf("unknown strategy %q (want auto, scan, tag, value or path)", s)
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()

	expr := r.FormValue("q")
	if expr == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	// Parse once up front: malformed queries are rejected before they cost
	// a worker slot, and the pattern tree's canonical rendering is the
	// cache key, so textual variants of one query share an entry.
	tree, err := pattern.Parse(expr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad query: %v", err)
		return
	}
	strat, err := parseStrategy(r.FormValue("strategy"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit := -1
	if v := r.FormValue("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
	}
	timeout := s.cfg.QueryTimeout
	if v := r.FormValue("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, "bad timeout %q", v)
			return
		}
		if d < timeout {
			timeout = d
		}
	}
	// ?partial=1 opts this request into degraded partial results when a
	// shard is unreachable (?partial=0 opts out of a permissive server
	// default). Meaningless against a single-store backend.
	partial := s.cfg.AllowPartial
	if v := r.FormValue("partial"); v != "" {
		partial = v != "0"
	}

	begin := time.Now()
	// The fingerprint is read before evaluation: if a mutation lands while
	// the query runs, the entry is stored under the pre-mutation state and
	// can never be served afterwards — over-invalidation, never staleness.
	// It takes the raw query text (the canonical tree rendering is a display
	// form, not re-parseable); textual variants still share an entry because
	// the canonical form is the key. "" marks the query uncachable.
	fp := s.store.CacheFingerprint(expr)
	key := cacheKey{expr: tree.String(), strategy: strat, fp: fp}
	if results, stats, ok := s.cache.get(key); fp != "" && ok {
		// A hit still gets its own telemetry record (the cached stats
		// describe the original evaluation and must not be mutated); its
		// fresh ID goes in the correlation header.
		if telemetry.Default.Enabled() {
			id := telemetry.Default.Capture(&telemetry.Record{
				Expr:     tree.String(),
				Start:    begin,
				Duration: time.Since(begin),
				Results:  len(results),
				CacheHit: true,
				Epoch:    s.store.Epoch(),
			})
			w.Header().Set("X-Nok-Query-Id", strconv.FormatUint(id, 10))
		}
		s.respondQuery(w, r, expr, results, stats, true, limit, time.Since(begin))
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	if err := s.pool.acquire(ctx); err != nil {
		s.writeQueryError(w, err)
		return
	}
	defer s.pool.release()

	results, stats, err := s.store.QueryWithOptionsContext(ctx, expr, &nok.QueryOptions{Strategy: strat, AllowPartial: partial})
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	if stats != nil && stats.QueryID != 0 {
		w.Header().Set("X-Nok-Query-Id", strconv.FormatUint(stats.QueryID, 10))
	}
	if fp != "" && (stats == nil || !stats.Degraded) {
		// Degraded answers are never cached: they are correct only for
		// the moment their shards were down, and serving them after the
		// missing shard heals would silently drop its rows.
		s.cache.put(key, results, stats)
	}
	s.respondQuery(w, r, expr, results, stats, false, limit, time.Since(begin))
}

// writeQueryError maps evaluation/admission errors to HTTP statuses.
// The shard-unavailable case is checked before the deadline case on
// purpose: the typed unavailability error can wrap an attempt-level
// deadline from the remote client's retry loop, and "a shard is down"
// is the actionable half of that story.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, nok.ErrShardUnavailable):
		mShardUnavail.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		mTimeouts.Inc()
		mQueryTimeout.Inc()
		writeError(w, http.StatusGatewayTimeout, "query deadline exceeded")
	case errors.Is(err, context.Canceled):
		// The client is gone; nobody reads this response. 499 is the
		// conventional (non-standard) code; anything written is for logs.
		mCanceled.Inc()
		writeError(w, 499, "client closed request")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) respondQuery(w http.ResponseWriter, r *http.Request, expr string, results []nok.Result, stats *nok.QueryStats, cached bool, limit int, elapsed time.Duration) {
	resp := queryResponse{
		Query:     expr,
		Count:     len(results),
		Cached:    cached,
		ElapsedMS: float64(elapsed.Microseconds()) / 1000,
	}
	if stats != nil && stats.Degraded {
		mPartial.Inc()
		resp.Degraded = true
		resp.MissingShards = stats.MissingShards
	}
	shown := results
	if limit >= 0 && limit < len(results) {
		shown = results[:limit]
		resp.Truncated = true
	}
	resp.Results = make([]resultJSON, len(shown))
	for i, res := range shown {
		resp.Results[i] = resultJSON{ID: res.ID, Tag: res.Tag, Value: res.Value, HasValue: res.HasValue}
	}
	if r.FormValue("stats") != "" {
		resp.Stats = stats
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()

	expr := r.FormValue("q")
	if expr == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	var plan string
	var err error
	if r.FormValue("analyze") != "" {
		// EXPLAIN ANALYZE executes the query, so it pays for a worker slot
		// like any evaluation.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
		defer cancel()
		if err := s.pool.acquire(ctx); err != nil {
			s.writeQueryError(w, err)
			return
		}
		_, _, plan, err = s.store.QueryAnalyze(expr, nil)
		s.pool.release()
	} else {
		plan, err = nok.Explain(expr)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, plan)
}

// handlePlan prints the cost-based planner's plan for a query without
// executing it — EXPLAIN to /explain?analyze=1's EXPLAIN ANALYZE. Planning
// reads only the in-memory synopsis, so it doesn't pay for a worker slot.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()

	expr := r.FormValue("q")
	if expr == "" {
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return
	}
	text, err := s.store.Plan(expr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

func (s *Server) handleValue(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()

	id := r.PathValue("id")
	v, ok, err := s.store.Value(id)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad id %q: %v", id, err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "node %q has no value", id)
		return
	}
	writeJSON(w, http.StatusOK, resultJSON{ID: id, Value: v, HasValue: true})
}

type mutationResponse struct {
	OK    bool   `json:"ok"`
	Epoch uint64 `json:"epoch"`
	Nodes uint64 `json:"nodes"`
}

// refuseMutation writes the 503 for degraded/draining states; it reports
// true when the request must not proceed.
func (s *Server) refuseMutation(w http.ResponseWriter) bool {
	if degraded, reason := s.Degraded(); degraded {
		w.Header().Set("Retry-After", "60")
		writeError(w, http.StatusServiceUnavailable, "store is degraded (%s): serving reads only", reason)
		return true
	}
	return false
}

// writeMutationError maps a mutation failure to an HTTP status, entering
// degraded mode when the store reports an unrecoverable transaction.
func (s *Server) writeMutationError(w http.ResponseWriter, err error) {
	if errors.Is(err, nok.ErrNeedsRecovery) {
		s.setDegraded("update transaction failed; restart to roll back to the last commit")
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()
	if s.refuseMutation(w) {
		return
	}
	// The body is the XML fragment, so the parent must come from the URL
	// (FormValue would consume the body as a form).
	parent := r.URL.Query().Get("parent")
	if parent == "" {
		writeError(w, http.StatusBadRequest, "missing parent parameter")
		return
	}
	// The fragment is buffered whole, so it is capped at the same in-flight
	// budget POST /ingest applies to a single document.
	frag, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.ingest.Budget()))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, "fragment larger than %d bytes", tooLarge.Limit)
			return
		}
		writeError(w, http.StatusBadRequest, "reading fragment: %v", err)
		return
	}
	if err := s.store.InsertBatch(parent, [][]byte{frag}); err != nil {
		s.writeMutationError(w, err)
		return
	}
	mMutations.Inc()
	writeJSON(w, http.StatusOK, mutationResponse{
		OK: true, Epoch: s.store.Epoch(), Nodes: s.store.NodeCount(),
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()
	if s.refuseMutation(w) {
		return
	}
	if err := s.store.Delete(r.PathValue("id")); err != nil {
		s.writeMutationError(w, err)
		return
	}
	mMutations.Inc()
	writeJSON(w, http.StatusOK, mutationResponse{
		OK: true, Epoch: s.store.Epoch(), Nodes: s.store.NodeCount(),
	})
}

type statsResponse struct {
	Version  string            `json:"version"`
	Store    nok.Stats         `json:"store"`
	Nodes    uint64            `json:"nodes"`
	Epoch    uint64            `json:"epoch"`
	MVCC     *nok.MVCCInfo     `json:"mvcc,omitempty"`
	Synopsis *nok.SynopsisInfo `json:"synopsis,omitempty"`
	// TagCount answers ?tag=NAME: the number of nodes with that tag.
	TagCount *uint64 `json:"tag_count,omitempty"`
	// Shards reports per-shard availability for sharded backends —
	// remote shards carry their address, prober verdict, breaker state
	// and last observed epoch.
	Shards     []nok.ShardHealth `json:"shards,omitempty"`
	Workers    int               `json:"workers"`
	QueueDepth int               `json:"queue_depth"`
	Inflight   int64             `json:"inflight"`
	Queued     int64             `json:"queued"`
	Cache      struct {
		Entries  int     `json:"entries"`
		Capacity int     `json:"capacity"`
		Hits     int64   `json:"hits"`
		Misses   int64   `json:"misses"`
		HitRatio float64 `json:"hit_ratio"`
	} `json:"cache"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.beginRequest() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	defer s.wg.Done()

	top := 0
	if v := r.FormValue("top"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			top = n
		}
	}
	syn := s.store.Synopsis(top)
	mvcc := s.store.MVCC()
	resp := statsResponse{
		Version:    buildinfo.String(),
		Store:      s.store.Stats(),
		Nodes:      s.store.NodeCount(),
		Epoch:      s.store.Epoch(),
		MVCC:       &mvcc,
		Synopsis:   &syn,
		Shards:     s.store.Health(),
		Workers:    s.cfg.Workers,
		QueueDepth: s.cfg.QueueDepth,
		Inflight:   s.pool.Inflight(),
		Queued:     s.pool.Queued(),
	}
	if tag := r.FormValue("tag"); tag != "" {
		n := s.store.TagCount(tag)
		resp.TagCount = &n
	}
	resp.Cache.Entries = s.cache.len()
	resp.Cache.Capacity = s.cfg.CacheEntries
	resp.Cache.Hits = s.cache.hits.Load()
	resp.Cache.Misses = s.cache.misses.Load()
	resp.Cache.HitRatio = s.cache.ratio()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// ?exemplars=1 (or an OpenMetrics Accept header) switches to the
	// OpenMetrics exposition, whose latency buckets carry query-ID
	// exemplars linking them to /debug/queries records. The default stays
	// plain 0.0.4 text, byte-compatible with every scraper.
	if r.FormValue("exemplars") != "" || strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = obs.Default.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default.WritePrometheus(w)
}

// debugQueriesResponse is the /debug/queries payload: the flight
// recorder's most recent records and the all-time slowest, both with
// rendered plans.
type debugQueriesResponse struct {
	Now             time.Time           `json:"now"`
	SlowThresholdMS float64             `json:"slow_threshold_ms"`
	Recent          []*telemetry.Record `json:"recent"`
	Slowest         []*telemetry.Record `json:"slowest"`
}

func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	n := 32
	if v := r.FormValue("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 {
			writeError(w, http.StatusBadRequest, "bad n %q", v)
			return
		}
		n = p
	}
	writeJSON(w, http.StatusOK, debugQueriesResponse{
		Now:             time.Now(),
		SlowThresholdMS: float64(telemetry.Default.SlowThreshold().Microseconds()) / 1000,
		Recent:          telemetry.Default.Recent(n),
		Slowest:         telemetry.Default.Slowest(n),
	})
}

type healthResponse struct {
	Status         string   `json:"status"` // "ok" or "degraded"
	Version        string   `json:"version"`
	Epoch          uint64   `json:"epoch"`
	Reason         string   `json:"reason,omitempty"`
	Deep           bool     `json:"deep,omitempty"`
	PagesChecked   int      `json:"pages_checked,omitempty"`
	EntriesChecked uint64   `json:"entries_checked,omitempty"`
	RecordsChecked int      `json:"records_checked,omitempty"`
	Issues         []string `json:"issues,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.lifeMu.Lock()
	draining := s.draining
	s.lifeMu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if r.FormValue("deep") != "" {
		// Full store verification under the read lock: queries proceed,
		// mutations wait for the check to finish.
		res := s.store.Verify(true)
		resp := healthResponse{
			Status:         "ok",
			Version:        buildinfo.String(),
			Epoch:          s.store.Epoch(),
			Deep:           true,
			PagesChecked:   res.PagesChecked,
			EntriesChecked: res.EntriesChecked,
			RecordsChecked: res.RecordsChecked,
		}
		if !res.OK() {
			s.setDegraded("deep verification failed")
			resp.Status = "degraded"
			for _, is := range res.Issues {
				resp.Issues = append(resp.Issues, is.String())
			}
			_, resp.Reason = s.Degraded()
			writeJSON(w, http.StatusServiceUnavailable, resp)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if degraded, reason := s.Degraded(); degraded {
		writeJSON(w, http.StatusServiceUnavailable, healthResponse{
			Status: "degraded", Version: buildinfo.String(), Epoch: s.store.Epoch(), Reason: reason,
		})
		return
	}
	writeJSON(w, http.StatusOK, healthResponse{
		Status: "ok", Version: buildinfo.String(), Epoch: s.store.Epoch(),
	})
}
