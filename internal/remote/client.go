package remote

// client.go — the fault-tolerant HTTP client for one remote shard.
//
// A Client speaks to one nokserve process and presents (a superset of)
// the shard-store surface internal/shard needs. Its reliability stack,
// outermost to innermost:
//
//	circuit breaker  — open shard fails immediately, half-open probes
//	retry loop       — idempotent reads only; exponential backoff + jitter
//	attempt timeout  — every HTTP attempt has its own deadline
//
// plus a background /healthz prober that maintains the healthy flag and
// last-known epoch, and (for Scatter only) optional request hedging: when
// an attempt outlives the shard's recent p95 latency, a second attempt is
// raced against it and the first response wins.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nok"
	"nok/internal/obs"
)

// ErrUnavailable reports that a remote shard could not be reached: every
// attempt failed, the circuit breaker is open, or the client is closed.
// Match with errors.Is. internal/shard maps it to degraded partial
// results or core.ErrShardUnavailable depending on QueryOptions.
var ErrUnavailable = errors.New("remote: shard unavailable")

var (
	mRequests = obs.Default.Counter("nok_remote_requests_total", "HTTP attempts issued to remote shards")
	mRetries  = obs.Default.Counter("nok_remote_retries_total", "retry attempts after a retryable remote failure")
	mFailures = obs.Default.Counter("nok_remote_failures_total", "remote attempts that failed (before retry accounting)")
	mHedges   = obs.Default.Counter("nok_remote_hedges_total", "hedged scatter requests launched")
	mRejected = obs.Default.Counter("nok_remote_breaker_rejected_total", "calls refused immediately by an open circuit breaker")
	mProbes   = obs.Default.Counter("nok_remote_probes_total", "background health probes sent")
)

// Config tunes the fault-tolerance stack. The zero value selects the
// documented defaults; see docs/FAULT_TOLERANCE.md for the rationale.
type Config struct {
	// AttemptTimeout bounds one HTTP attempt (default 2s).
	AttemptTimeout time.Duration
	// MaxRetries is how many additional attempts an idempotent read gets
	// after the first fails retryably (default 2; negative disables
	// retries). Mutations are never retried.
	MaxRetries int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts: base·2^(attempt-1) capped at max, with ±50% jitter
	// (defaults 25ms and 500ms).
	RetryBase time.Duration
	RetryMax  time.Duration
	// BreakerThreshold consecutive failures open the circuit breaker
	// (default 5); BreakerCooldown is how long it stays open before
	// admitting a half-open probe (default 3s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// HedgeAfter enables hedged scatter requests: when an attempt has
	// been in flight for max(HedgeAfter, observed p95) a second attempt
	// is raced against it. Zero disables hedging.
	HedgeAfter time.Duration
	// ProbeInterval is the background /healthz polling period (default
	// 1s; negative disables the prober).
	ProbeInterval time.Duration
	// Transport overrides the HTTP transport — the chaos tests inject
	// faults here (default: a private http.Transport).
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 2 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 3 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.Transport == nil {
		c.Transport = &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}
	}
	return c
}

// Client talks to one remote shard. Safe for concurrent use.
type Client struct {
	addr  string // base URL, e.g. "http://10.0.0.7:8080"
	shard int
	cfg   Config
	hc    *http.Client
	br    *breaker

	// healthy is maintained by the prober and by real traffic; a false
	// value drops the retry budget to zero so a query does not serially
	// wait out attempts the prober already knows will fail.
	healthy atomic.Bool
	epoch   atomic.Uint64 // last epoch observed from any response
	stats   atomic.Pointer[statsPayload]

	lat latWindow // recent scatter latencies, for the hedge delay

	closed  atomic.Bool
	ctx     context.Context // canceled by Close: aborts in-flight attempts
	cancel  context.CancelFunc
	probeWG sync.WaitGroup
}

// New builds a client for the shard at addr (scheme://host:port, no
// trailing slash) and starts its background health prober.
func New(addr string, shard int, cfg Config) *Client {
	cfg = cfg.withDefaults()
	c := &Client{
		addr:  strings.TrimRight(addr, "/"),
		shard: shard,
		cfg:   cfg,
		hc:    &http.Client{Transport: cfg.Transport},
		br:    newBreaker(shard, cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.healthy.Store(true) // optimistic until the first probe says otherwise
	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c
}

// Addr returns the shard's base URL.
func (c *Client) Addr() string { return c.addr }

// Shard returns the shard index this client serves.
func (c *Client) Shard() int { return c.shard }

// Healthy reports the prober's last verdict.
func (c *Client) Healthy() bool { return c.healthy.Load() }

// BreakerState names the circuit breaker state for health reporting.
func (c *Client) BreakerState() string { return c.br.snapshot() }

// Epoch returns the shard's last observed committed epoch (0 before any
// response has been seen). It is refreshed by every scatter response,
// stats fetch and health probe, so its staleness is bounded by the probe
// interval.
func (c *Client) Epoch() uint64 { return c.epoch.Load() }

// Close stops the prober and aborts in-flight attempts. Idempotent.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	c.cancel()
	c.probeWG.Wait()
	if t, ok := c.cfg.Transport.(interface{ CloseIdleConnections() }); ok {
		t.CloseIdleConnections()
	}
	return nil
}

// ---- request machinery ------------------------------------------------------

// statusError is a non-2xx response from a live server. 4xx (except 429)
// are permanent: the server understood the request and rejected it, so a
// retry cannot help and the error surfaces to the caller as-is.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500 || se.code == http.StatusTooManyRequests || se.code == http.StatusRequestTimeout
	}
	// Everything else — dial failures, resets, attempt timeouts,
	// truncated streams — is a transport-level fault and worth retrying.
	return true
}

// unavailableError carries the shard address and last cause behind
// ErrUnavailable.
type unavailableError struct {
	addr  string
	cause error
}

func (e *unavailableError) Error() string {
	return fmt.Sprintf("remote shard %s unavailable: %v", e.addr, e.cause)
}
func (e *unavailableError) Is(target error) bool { return target == ErrUnavailable }
func (e *unavailableError) Unwrap() error        { return e.cause }

func (c *Client) unavailable(cause error) error {
	return &unavailableError{addr: c.addr, cause: cause}
}

// do runs one logical request through the breaker and (for idempotent
// requests) the retry loop. decode consumes a 2xx response body; extraOK
// lists non-2xx statuses also handed to decode (e.g. 404 on /value).
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool, extraOK []int, decode func(status int, body io.Reader) error) error {
	if c.closed.Load() {
		return c.unavailable(errors.New("client closed"))
	}
	probe, ok := c.br.admit()
	if !ok {
		mRejected.Inc()
		return c.unavailable(errors.New("circuit breaker open"))
	}
	retries := 0
	if idempotent && c.healthy.Load() {
		retries = c.cfg.MaxRetries
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			mRetries.Inc()
			if err := sleepCtx(ctx, c.backoff(attempt)); err != nil {
				break
			}
		}
		err := c.attempt(ctx, method, path, body, extraOK, decode)
		if err == nil {
			c.br.result(probe, true)
			c.healthy.Store(true)
			return nil
		}
		if !retryable(err) {
			// The shard answered; it is available, just unwilling.
			c.br.result(probe, true)
			return err
		}
		mFailures.Inc()
		lastErr = err
		if ctx.Err() != nil || c.ctx.Err() != nil || attempt >= retries {
			break
		}
	}
	c.br.result(probe, false)
	c.healthy.Store(false)
	return c.unavailable(lastErr)
}

// attempt issues one HTTP request under the attempt timeout (also bounded
// by the caller's ctx and aborted by Close).
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, extraOK []int, decode func(status int, body io.Reader) error) error {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	stop := context.AfterFunc(c.ctx, cancel)
	defer stop()

	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.addr+path, rd)
	if err != nil {
		return err
	}
	mRequests.Inc()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		_ = resp.Body.Close()
	}()
	okStatus := resp.StatusCode >= 200 && resp.StatusCode < 300
	for _, s := range extraOK {
		okStatus = okStatus || resp.StatusCode == s
	}
	if !okStatus {
		msg := readErrorBody(resp.Body)
		return &statusError{code: resp.StatusCode, msg: msg}
	}
	if decode == nil {
		return nil
	}
	return decode(resp.StatusCode, resp.Body)
}

// readErrorBody extracts the server's error message (JSON
// {"error": "..."} or plain text), bounded to 4KiB.
func readErrorBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var er struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &er) == nil && er.Error != "" {
		return er.Error
	}
	return strings.TrimSpace(string(b))
}

// backoff returns the sleep before the attempt-th try: exponential from
// RetryBase, capped at RetryMax, with ±50% jitter so a fleet of
// coordinators does not retry in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << (attempt - 1)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ---- scatter ----------------------------------------------------------------

// strategyParam renders a strategy for the ?strategy= query parameter
// (the inverse of the server's parseStrategy).
func strategyParam(s nok.Strategy) string {
	switch s {
	case nok.StrategyScan:
		return "scan"
	case nok.StrategyTagIndex:
		return "tag"
	case nok.StrategyValueIndex:
		return "value"
	case nok.StrategyPathIndex:
		return "path"
	default:
		return "auto"
	}
}

func scatterPath(expr string, opts *nok.QueryOptions) string {
	v := url.Values{}
	v.Set("q", expr)
	if opts != nil {
		if opts.Strategy != nok.StrategyAuto {
			v.Set("strategy", strategyParam(opts.Strategy))
		}
		if opts.DisablePageSkip {
			v.Set("pageskip", "0")
		}
		if opts.DisablePlanner {
			v.Set("planner", "0")
		}
		if opts.DisableParallel {
			v.Set("parallel", "0")
		}
	}
	return "/scatter?" + v.Encode()
}

// Scatter evaluates expr on the remote shard and returns its
// dewey-ordered matches (or a pruned marker). The shard applies its own
// statistics-based pruning server-side, so a provably empty shard costs
// one round trip and no evaluation. With hedging enabled, a second
// attempt races the first once it outlives the shard's recent p95.
func (c *Client) Scatter(ctx context.Context, expr string, opts *nok.QueryOptions) (*ScatterResult, error) {
	path := scatterPath(expr, opts)
	run := func(ctx context.Context) (*ScatterResult, error) {
		var out *ScatterResult
		err := c.do(ctx, http.MethodGet, path, nil, true, nil, func(_ int, body io.Reader) error {
			res, err := ReadScatter(body)
			if err != nil {
				return err
			}
			out = res
			return nil
		})
		return out, err
	}

	begin := time.Now()
	delay := c.hedgeDelay()
	var res *ScatterResult
	var err error
	if delay <= 0 {
		res, err = run(ctx)
	} else {
		res, err = c.hedged(ctx, delay, run)
	}
	if err != nil {
		return nil, err
	}
	c.lat.observe(time.Since(begin))
	c.epoch.Store(res.Epoch)
	return res, nil
}

// hedged races a second run launched after delay; the first success wins
// and cancels the loser. Both failing returns the first error.
func (c *Client) hedged(ctx context.Context, delay time.Duration, run func(context.Context) (*ScatterResult, error)) (*ScatterResult, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res *ScatterResult
		err error
	}
	ch := make(chan outcome, 2)
	launch := func() {
		go func() {
			r, e := run(cctx)
			ch <- outcome{r, e}
		}()
	}
	launch()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	pending, hedged := 1, false
	var firstErr error
	for {
		select {
		case o := <-ch:
			if o.err == nil {
				return o.res, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			pending--
			if pending == 0 && (hedged || !timer.Stop()) {
				// Both runs failed, or the only run failed after the
				// hedge window already fired-and-was-consumed.
				return nil, firstErr
			}
			if !hedged {
				// The primary failed before the hedge launched; a hedge
				// would just repeat the retry loop that already ran.
				return nil, firstErr
			}
		case <-timer.C:
			if pending == 0 {
				return nil, firstErr
			}
			mHedges.Inc()
			hedged = true
			pending++
			launch()
		}
	}
}

// hedgeDelay is max(cfg.HedgeAfter, recent p95); zero disables hedging.
func (c *Client) hedgeDelay() time.Duration {
	if c.cfg.HedgeAfter <= 0 {
		return 0
	}
	if p := c.lat.p95(); p > c.cfg.HedgeAfter {
		return p
	}
	return c.cfg.HedgeAfter
}

// latWindow is a small ring of recent latencies for the hedge delay.
type latWindow struct {
	mu  sync.Mutex
	buf [64]time.Duration
	n   int
}

func (w *latWindow) observe(d time.Duration) {
	w.mu.Lock()
	w.buf[w.n%len(w.buf)] = d
	w.n++
	w.mu.Unlock()
}

// p95 returns the 95th percentile of the window, or 0 with fewer than 8
// samples (not enough signal to hedge on).
func (w *latWindow) p95() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.n
	if n > len(w.buf) {
		n = len(w.buf)
	}
	if n < 8 {
		return 0
	}
	s := make([]time.Duration, n)
	copy(s, w.buf[:n])
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[n*95/100]
}

// ---- the rest of the shard-store surface ------------------------------------

// statsPayload mirrors the fields of the server's /stats response the
// client consumes.
type statsPayload struct {
	Store    nok.Stats         `json:"store"`
	Nodes    uint64            `json:"nodes"`
	Epoch    uint64            `json:"epoch"`
	MVCC     *nok.MVCCInfo     `json:"mvcc"`
	Synopsis *nok.SynopsisInfo `json:"synopsis"`
	TagCount *uint64           `json:"tag_count"`
}

// fetchStats GETs /stats (optionally with extra query parameters) and
// caches the payload for the availability-window getters below.
func (c *Client) fetchStats(params string) (*statsPayload, error) {
	var out *statsPayload
	err := c.do(c.ctx, http.MethodGet, "/stats"+params, nil, true, nil, func(_ int, body io.Reader) error {
		p := &statsPayload{}
		if err := json.NewDecoder(body).Decode(p); err != nil {
			return err
		}
		out = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.stats.Store(out)
	c.epoch.Store(out.Epoch)
	return out, nil
}

// cachedStats returns the freshest payload available: a live fetch when
// the shard answers, the last good payload otherwise (so aggregate stats
// keep rendering while one shard is down).
func (c *Client) cachedStats() *statsPayload {
	if p, err := c.fetchStats(""); err == nil {
		return p
	}
	if p := c.stats.Load(); p != nil {
		return p
	}
	return &statsPayload{}
}

// Stats returns the remote store's stats (zero value when the shard has
// never answered).
func (c *Client) Stats() nok.Stats { return c.cachedStats().Store }

// NodeCount returns the remote node count (possibly stale when down).
func (c *Client) NodeCount() uint64 { return c.cachedStats().Nodes }

// MVCC returns the remote MVCC accounting; ok is false when the shard
// has never reported one.
func (c *Client) MVCC() (nok.MVCCInfo, bool) {
	p := c.cachedStats()
	if p.MVCC == nil {
		return nok.MVCCInfo{}, false
	}
	return *p.MVCC, true
}

// Synopsis returns the remote statistics synopsis (zero value when the
// shard is unreachable and was never seen).
func (c *Client) Synopsis(n int) nok.SynopsisInfo {
	var out *nok.SynopsisInfo
	params := ""
	if n > 0 {
		params = "?top=" + strconv.Itoa(n)
	}
	if p, err := c.fetchStats(params); err == nil && p.Synopsis != nil {
		out = p.Synopsis
	} else if p := c.stats.Load(); p != nil && p.Synopsis != nil {
		out = p.Synopsis
	}
	if out == nil {
		return nok.SynopsisInfo{}
	}
	return *out
}

// TagCount returns the remote count of nodes with the given tag (0 when
// unreachable).
func (c *Client) TagCount(name string) uint64 {
	p, err := c.fetchStats("?tag=" + url.QueryEscape(name))
	if err != nil || p.TagCount == nil {
		return 0
	}
	return *p.TagCount
}

// Plan fetches the remote planner's textual plan for expr.
func (c *Client) Plan(expr string) (string, error) {
	var out string
	err := c.do(c.ctx, http.MethodGet, "/plan?q="+url.QueryEscape(expr), nil, true, nil, func(_ int, body io.Reader) error {
		b, err := io.ReadAll(io.LimitReader(body, 1<<20))
		if err != nil {
			return err
		}
		out = string(b)
		return nil
	})
	return out, err
}

// Value fetches one node's text content. A 404 means the node exists
// without a value (or not at all) — reported as ok=false, not an error,
// matching nok.Store.Value.
func (c *Client) Value(id string) (string, bool, error) {
	var out string
	var found bool
	err := c.do(c.ctx, http.MethodGet, "/value/"+url.PathEscape(id), nil, true, []int{http.StatusNotFound}, func(status int, body io.Reader) error {
		if status == http.StatusNotFound {
			return nil
		}
		var r struct {
			Value    string `json:"value"`
			HasValue bool   `json:"has_value"`
		}
		if err := json.NewDecoder(body).Decode(&r); err != nil {
			return err
		}
		out, found = r.Value, r.HasValue
		return nil
	})
	return out, found, err
}

// mutationPayload mirrors the server's mutation response.
type mutationPayload struct {
	Epoch uint64 `json:"epoch"`
}

// Insert sends an XML fragment to be inserted under parentID on the
// remote shard. Mutations are NOT idempotent and are never retried: a
// timed-out insert may have committed, and replaying it would duplicate
// the subtree. The caller sees the transport error and decides.
func (c *Client) Insert(parentID string, fragment io.Reader) error {
	body, err := io.ReadAll(fragment)
	if err != nil {
		return err
	}
	return c.do(c.ctx, http.MethodPost, "/insert?parent="+url.QueryEscape(parentID), body, false, nil, c.decodeMutation)
}

// Delete removes the subtree rooted at id on the remote shard. Not
// retried (a replayed delete after a timed-out success returns a
// spurious not-found).
func (c *Client) Delete(id string) error {
	return c.do(c.ctx, http.MethodDelete, "/node/"+url.PathEscape(id), nil, false, nil, c.decodeMutation)
}

func (c *Client) decodeMutation(_ int, body io.Reader) error {
	var m mutationPayload
	if err := json.NewDecoder(body).Decode(&m); err != nil {
		return err
	}
	c.epoch.Store(m.Epoch)
	return nil
}

// Verify asks the remote shard for a health verdict. Shallow maps to
// GET /healthz, deep to /healthz?deep=1 (a full remote store
// verification). An unreachable shard yields a single-issue result
// rather than an error, matching the local Verify contract of always
// returning a report.
func (c *Client) Verify(deep bool) *nok.VerifyResult {
	path := "/healthz"
	if deep {
		path += "?deep=1"
	}
	res := &nok.VerifyResult{}
	err := c.do(c.ctx, http.MethodGet, path, nil, true, []int{http.StatusServiceUnavailable}, func(_ int, body io.Reader) error {
		var h struct {
			Status         string   `json:"status"`
			Epoch          uint64   `json:"epoch"`
			PagesChecked   int      `json:"pages_checked"`
			EntriesChecked uint64   `json:"entries_checked"`
			RecordsChecked int      `json:"records_checked"`
			Issues         []string `json:"issues"`
		}
		if err := json.NewDecoder(body).Decode(&h); err != nil {
			return err
		}
		res.PagesChecked = h.PagesChecked
		res.EntriesChecked = h.EntriesChecked
		res.RecordsChecked = h.RecordsChecked
		if h.Epoch > 0 {
			c.epoch.Store(h.Epoch)
		}
		for _, is := range h.Issues {
			res.Issues = append(res.Issues, nok.VerifyIssue{Component: fmt.Sprintf("remote %s", c.addr), Err: errors.New(is)})
		}
		if h.Status != "ok" && len(h.Issues) == 0 {
			res.Issues = append(res.Issues, nok.VerifyIssue{Component: fmt.Sprintf("remote %s", c.addr), Err: fmt.Errorf("status %q", h.Status)})
		}
		return nil
	})
	if err != nil {
		res.Issues = append(res.Issues, nok.VerifyIssue{Component: fmt.Sprintf("remote %s", c.addr), Err: err})
	}
	return res
}

// ---- background prober ------------------------------------------------------

func (c *Client) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.probe()
		}
	}
}

// probe hits /healthz once, bypassing breaker and retries: its job is to
// maintain the healthy flag and re-close an open breaker the moment the
// shard answers again, independent of query traffic. A degraded (503 but
// JSON-speaking) server still counts as reachable — it serves reads.
func (c *Client) probe() {
	mProbes.Inc()
	timeout := c.cfg.AttemptTimeout
	if c.cfg.ProbeInterval < timeout {
		timeout = c.cfg.ProbeInterval
	}
	ctx, cancel := context.WithTimeout(c.ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.addr+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.healthy.Store(false)
		return
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<12))
		_ = resp.Body.Close()
	}()
	var h struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
	}
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&h) != nil || h.Status == "" {
		// Plain-text 503 ("draining") or garbage: the process is going
		// away or is not a nokserve.
		c.healthy.Store(false)
		return
	}
	c.healthy.Store(true)
	if h.Epoch > 0 {
		c.epoch.Store(h.Epoch)
	}
	c.br.reset()
}
