package main

// client.go — the load generator: closed-loop keep-alive HTTP clients that
// check every answer, and the arithmetic that turns their samples into
// metrics. A timed phase is cut into five equal slices; a metric's value
// is the median of its per-slice values, so one disturbed slice (a GC
// burst, a noisy neighbour) moves the spread and not the value.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request; a timeout is a failed operation.
const requestTimeout = 10 * time.Second

const phaseSlices = 5

// stat is a reported value with the spread it was drawn from.
type stat struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"` // samples behind the value
}

func single(v float64) stat { return stat{Value: v, Min: v, Max: v, N: 1} }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return medianSorted(s)
}

func medianSorted(s []float64) float64 {
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile is nearest-rank on a sorted slice.
func percentile(sorted []float64, q float64) float64 {
	i := int(float64(len(sorted))*q+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func spread(xs []float64, n int) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Value: medianSorted(s), Min: s[0], Max: s[len(s)-1], N: n}
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sample is one correct response: which query of the mix it answered, when
// it completed relative to the start of the phase, and how long it took.
type sample struct {
	Class int
	End   time.Duration
	Lat   time.Duration
}

// loader drives requests and counts operations across phases.
type loader struct {
	hc        *http.Client
	tr        *tracer
	nextReq   atomic.Uint64
	attempted atomic.Int64
	failed    atomic.Int64
	respBytes atomic.Int64

	mu       sync.Mutex
	firstErr error
}

// newLoader builds a client with exactly conns keep-alive connections per
// server.
func newLoader(conns int, tr *tracer) *loader {
	return &loader{tr: tr, hc: &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute},
	}}
}

func (l *loader) close() { l.hc.CloseIdleConnections() }

// fail counts a failed operation and keeps the first reason for the report.
func (l *loader) fail(err error) {
	l.failed.Add(1)
	l.mu.Lock()
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.mu.Unlock()
}

// do sends one request and reads the whole body. It returns the latency
// from send to last body byte. When the tracer records, the request is a
// root span with send / wait / read children, and the wait span's id
// travels in a header so server-side spans hang under it.
func (l *loader) do(ctx context.Context, method, target string, body []byte, buf *bytes.Buffer) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, target, rd)
	if err != nil {
		return 0, 0, err
	}
	var root, send, wait, read spanRef
	if l.tr.recording() {
		root = l.tr.begin("client.request", spanRef{Req: l.nextReq.Add(1)})
		send = l.tr.begin("client.send", root)
		wait = l.tr.begin("client.wait", root)
		req.Header.Set(spanHeader, wait.header())
		req = req.WithContext(httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) { l.tr.end(send); l.tr.restart(wait) },
			GotFirstResponseByte: func() {
				l.tr.end(wait)
				read = l.tr.begin("client.read", root)
			},
		}))
	}
	t0 := time.Now()
	resp, err := l.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	l.tr.end(read)
	l.tr.end(root)
	return resp.StatusCode, lat, err
}

// countField reads the "count" member of a /query response without
// decoding the results.
func countField(body []byte) (int, bool) {
	key := []byte(`"count": `)
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// queryOnce issues GET /query?limit=100 and checks the count against the
// oracle. A non-200 (429 included), a timeout or a wrong count is a
// failed operation and yields no latency.
func (l *loader) queryOnce(ctx context.Context, q query, buf *bytes.Buffer) (time.Duration, bool) {
	l.attempted.Add(1)
	status, lat, err := l.do(ctx, http.MethodGet, q.URL+"/query?limit=100&q="+url.QueryEscape(q.Expr), nil, buf)
	switch got, ok := countField(buf.Bytes()); {
	case err != nil:
		if ctx.Err() != nil {
			l.attempted.Add(-1) // interrupted, not failed
			return 0, false
		}
		l.fail(fmt.Errorf("%s: %w", q.Expr, err))
	case status != http.StatusOK:
		l.fail(fmt.Errorf("%s: HTTP %d: %.200s", q.Expr, status, buf.Bytes()))
	case !ok || got != q.Want:
		l.fail(fmt.Errorf("%s: count %d, oracle says %d", q.Expr, got, q.Want))
	default:
		l.respBytes.Add(int64(buf.Len()))
		return lat, true
	}
	return 0, false
}

// readPhase runs clients closed-loop clients over mix until stop closes
// (or ctx is cancelled) and returns the correct responses and the phase
// length. Each client sends the mix in rounds, every query once per round
// in a freshly shuffled order: every class gets the same number of
// requests, and which queries of two clients run side by side keeps
// changing instead of being fixed by the seed for the whole run.
func (l *loader) readPhase(ctx context.Context, mix []query, clients int, seed int64, stop <-chan struct{}) ([]sample, time.Duration) {
	var wg sync.WaitGroup
	perClient := make([][]sample, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			var order []int
			var buf bytes.Buffer
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				if i%len(mix) == 0 {
					order = rng.Perm(len(mix))
				}
				class := order[i%len(mix)]
				if lat, ok := l.queryOnce(ctx, mix[class], &buf); ok {
					perClient[c] = append(perClient[c], sample{Class: class, End: time.Since(start), Lat: lat})
				}
			}
		}(c)
	}
	wg.Wait()
	total := time.Since(start)
	var all []sample
	for _, s := range perClient {
		all = append(all, s...)
	}
	return all, total
}

// timedReadPhase is readPhase for a fixed duration.
func (l *loader) timedReadPhase(ctx context.Context, mix []query, clients int, seed int64, d time.Duration) ([]sample, time.Duration) {
	stop := make(chan struct{})
	t := time.AfterFunc(d, func() { close(stop) })
	defer t.Stop()
	samples, _ := l.readPhase(ctx, mix, clients, seed, stop)
	return samples, d
}

// warm runs every query of the mix once, untimed, so pools and plan caches
// are in their steady state when the clock starts.
func (l *loader) warm(ctx context.Context, mix []query) {
	var buf bytes.Buffer
	for _, q := range mix {
		l.queryOnce(ctx, q, &buf)
	}
}

// readMetrics turns a read phase's samples into throughput and latency.
// Samples that completed after the phase ended count for nothing.
//
// Throughput and p50 are the median of the five per-slice values. The
// mix's classes are equally frequent and their latencies differ by up to
// 100x, so the pooled median of a slice is whichever sample sits on the gap
// between two classes — the extreme tail of one of them, which moved by
// 19% between runs on the scatter mix. A slice's p50 is therefore the
// median latency of each class, averaged over the classes.
//
// p95 is the pooled 95th percentile of the whole phase (it falls inside
// the slowest class), with the per-slice values as its spread. A slice of
// the nav phase holds some 55 samples, three beyond its 95th percentile,
// where the phase holds fourteen; and on ingest a slice holds about one
// commit, so per-slice tails follow how much of a commit's index rebuild
// fell into the slice (their median moved 7-17% between runs, the pooled
// value 5-6%).
func readMetrics(samples []sample, total time.Duration) (qps, p50, p95 stat, err error) {
	width := total / phaseSlices
	lats := make([][]float64, phaseSlices)
	byClass := make([]map[int][]float64, phaseSlices)
	var all []float64
	for _, s := range samples {
		if i := int(s.End / width); i < phaseSlices {
			if byClass[i] == nil {
				byClass[i] = map[int][]float64{}
			}
			lats[i] = append(lats[i], millis(s.Lat))
			byClass[i][s.Class] = append(byClass[i][s.Class], millis(s.Lat))
			all = append(all, millis(s.Lat))
		}
	}
	var q, m, t []float64
	for i, ls := range lats {
		q = append(q, float64(len(ls))/width.Seconds())
		if len(ls) == 0 {
			continue
		}
		sum := 0.0
		for _, cl := range byClass[i] {
			sum += median(cl)
		}
		m = append(m, sum/float64(len(byClass[i])))
		sort.Float64s(ls)
		t = append(t, percentile(ls, 0.95))
	}
	if len(m) == 0 {
		return qps, p50, p95, fmt.Errorf("read phase of %v completed no correct request", total)
	}
	sort.Float64s(all)
	p95 = spread(t, len(all))
	p95.Value = percentile(all, 0.95)
	return spread(q, len(all)), spread(m, len(all)), p95, nil
}

// classStat is one query class's latency over a whole read phase; the
// report lists them so a change can be pinned to the classes it moved.
type classStat struct {
	Dataset string  `json:"dataset"`
	Class   string  `json:"class"`
	Expr    string  `json:"expr"`
	N       int     `json:"n"`
	P50     float64 `json:"p50_ms"`
	P95     float64 `json:"p95_ms"`
}

func classStats(mix []query, samples []sample) []classStat {
	lats := make([][]float64, len(mix))
	for _, s := range samples {
		lats[s.Class] = append(lats[s.Class], millis(s.Lat))
	}
	out := make([]classStat, 0, len(mix))
	for i, q := range mix {
		if len(lats[i]) == 0 {
			continue
		}
		sort.Float64s(lats[i])
		out = append(out, classStat{q.Dataset, q.Class, q.Expr, len(lats[i]), percentile(lats[i], 0.50), percentile(lats[i], 0.95)})
	}
	return out
}

// ingestAck is the part of a POST /ingest response the benchmark checks.
type ingestAck struct {
	OK      bool   `json:"ok"`
	Docs    int    `json:"docs"`
	Durable bool   `json:"durable"`
	Epoch   uint64 `json:"epoch"`
	Nodes   uint64 `json:"nodes"`
}

// commit sends one durable POST /ingest carrying docs and checks the
// acknowledgement.
func (l *loader) commit(ctx context.Context, base string, docs [][]byte, buf *bytes.Buffer) (time.Duration, ingestAck, bool) {
	l.attempted.Add(1)
	status, lat, err := l.do(ctx, http.MethodPost, base+"/ingest", bytes.Join(docs, nil), buf)
	var ack ingestAck
	switch {
	case err != nil:
		l.fail(fmt.Errorf("ingest: %w", err))
	case status != http.StatusOK:
		l.fail(fmt.Errorf("ingest: HTTP %d: %.200s", status, buf.Bytes()))
	case json.Unmarshal(buf.Bytes(), &ack) != nil || !ack.OK || !ack.Durable || ack.Docs != len(docs):
		l.fail(fmt.Errorf("ingest: bad acknowledgement %.200s", buf.Bytes()))
	default:
		return lat, ack, true
	}
	return 0, ack, false
}

// commitPhase sends the batches one after another and returns the
// latencies of the acknowledged ones and the wall time of the phase.
func (l *loader) commitPhase(ctx context.Context, base string, batches [][][]byte) ([]float64, time.Duration) {
	var buf bytes.Buffer
	var lats []float64
	start := time.Now()
	for _, docs := range batches {
		if ctx.Err() != nil {
			break
		}
		if lat, _, ok := l.commit(ctx, base, docs, &buf); ok {
			lats = append(lats, millis(lat))
		}
	}
	return lats, time.Since(start)
}
