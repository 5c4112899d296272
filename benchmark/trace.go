package main

// trace.go — spans recorded from outside the program under test, at the
// boundaries the repo already exposes as interfaces: the HTTP client call,
// an http.Handler around the server, a server.Backend decorator (query and
// insert-batch) and a remote.Config.Transport RoundTripper; a vfs.FS
// decorator counts and times the durability points of a commit. Every span
// carries its request's id and its parent; spans stay in memory until the
// run ends. Nothing here runs in an untraced run:
// a nil *tracer means no decorator is installed at all, and a tracer that
// is switched off records nothing, which is how the traced run measures
// its own overhead on an otherwise identical topology.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nok"
	"nok/internal/server"
	"nok/internal/vfs"
)

// spanRef names a recorded span: the request it belongs to and its index.
// The zero value means "no span".
type spanRef struct {
	Req uint64
	ID  int32
}

type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) recording() bool { return t != nil && t.on.Load() }

// begin opens a span under parent. A root span passes spanRef{Req: id}.
// Spans are only recorded for requests that carry an id, so background
// traffic (the remote clients' health probes) leaves no spans.
func (t *tracer) begin(name string, parent spanRef) spanRef {
	if !t.recording() || parent.Req == 0 {
		return spanRef{}
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Name: name, Req: parent.Req, ID: id, Parent: parent.ID, Start: now})
	t.mu.Unlock()
	return spanRef{Req: parent.Req, ID: id}
}

// restart moves an open span's start to now; the client reserves its wait
// span before the request is written so the id can travel in the header.
func (t *tracer) restart(ref spanRef) {
	if ref.ID == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[ref.ID-1].Start = now
	t.mu.Unlock()
}

func (t *tracer) end(ref spanRef) {
	if ref.ID == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[ref.ID-1].End = now
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// ---- propagation ------------------------------------------------------------

const spanHeader = "X-Bench-Span"

func (r spanRef) header() string {
	return strconv.FormatUint(r.Req, 10) + "." + strconv.Itoa(int(r.ID))
}

func parseSpanHeader(v string) spanRef {
	req, id, ok := strings.Cut(v, ".")
	if !ok {
		return spanRef{}
	}
	r, err1 := strconv.ParseUint(req, 10, 64)
	i, err2 := strconv.ParseInt(id, 10, 32)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{Req: r, ID: int32(i)}
}

type spanKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	if ref.ID == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, ref)
}

func spanFrom(ctx context.Context) spanRef {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	return ref
}

// ---- server side ------------------------------------------------------------

// tracedBackend decorates a server.Backend. It forwards the optional
// refinements the server probes for by type assertion, so a decorated
// store still batches ingest and still prunes server-side.
type tracedBackend struct {
	server.Backend
	tr   *tracer
	role string // span-name prefix: "server" or "member"

	// ingestParent is the handler span of the POST /ingest in flight.
	// InsertBatch runs on the pipeline's committer goroutine, which has no
	// request context; the traced run has one writer, so one slot is enough.
	mu           sync.Mutex
	ingestParent spanRef
}

type batchInserter interface {
	InsertBatch(parentID string, frags [][]byte) error
}

func newTracedBackend(b server.Backend, tr *tracer, role string) *tracedBackend {
	return &tracedBackend{Backend: b, tr: tr, role: role}
}

func (b *tracedBackend) QueryWithOptionsContext(ctx context.Context, expr string, opts *nok.QueryOptions) ([]nok.Result, *nok.QueryStats, error) {
	ref := b.tr.begin(b.role+".backend.query", spanFrom(ctx))
	defer b.tr.end(ref)
	return b.Backend.QueryWithOptionsContext(withSpan(ctx, ref), expr, opts)
}

func (b *tracedBackend) InsertBatch(parentID string, frags [][]byte) error {
	bi, ok := b.Backend.(batchInserter)
	if !ok {
		return fmt.Errorf("backend %T cannot batch", b.Backend)
	}
	b.mu.Lock()
	parent := b.ingestParent
	b.mu.Unlock()
	ref := b.tr.begin(b.role+".backend.insert_batch", parent)
	defer b.tr.end(ref)
	return bi.InsertBatch(parentID, frags)
}

func (b *tracedBackend) ProvablyEmpty(expr string) (bool, string, error) {
	if pe, ok := b.Backend.(server.ProvableEmptier); ok {
		return pe.ProvablyEmpty(expr)
	}
	return false, "", nil
}

// fingerprintingBackend adds the cache-fingerprint refinement for backends
// that have it (the shard coordinator), so the decorated server does the
// same per-request work as the plain one.
type fingerprintingBackend struct {
	*tracedBackend
	fp server.CacheFingerprinter
}

func (b fingerprintingBackend) CacheFingerprint(expr string) string {
	return b.fp.CacheFingerprint(expr)
}

// handler wraps the server: it opens the handler span under the span the
// client named in the request header and hands it down in the context,
// which server.handleQuery passes to the backend.
func (b *tracedBackend) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := b.tr.begin(b.role+".handler", parseSpanHeader(r.Header.Get(spanHeader)))
		if ref.ID != 0 {
			if r.Method == http.MethodPost {
				b.mu.Lock()
				b.ingestParent = ref
				b.mu.Unlock()
			}
			r = r.WithContext(withSpan(r.Context(), ref))
		}
		next.ServeHTTP(w, r)
		b.tr.end(ref)
	})
}

// ---- remote transport ------------------------------------------------------

// tracingTransport is the remote.Config.Transport of a traced coordinator:
// one span per attempt, from RoundTrip to the last body byte, with the
// span id forwarded so the member's spans hang under it.
type tracingTransport struct {
	base *http.Transport
	tr   *tracer
}

func (t *tracer) roundTripper() *tracingTransport {
	// Same pool settings as remote's default transport.
	return &tracingTransport{tr: t, base: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 30 * time.Second}}
}

func (rt *tracingTransport) CloseIdleConnections() { rt.base.CloseIdleConnections() }

func (rt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref := rt.tr.begin("remote.rpc", spanFrom(req.Context()))
	if ref.ID == 0 {
		return rt.base.RoundTrip(req)
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, ref.header())
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		rt.tr.end(ref)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { rt.tr.end(ref) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// ---- file system -----------------------------------------------------------

// countingFS decorates a vfs.FS: it counts the durability points and the
// bytes a commit writes, and times the fsyncs. With one writer and no
// timers these counts repeat exactly.
type countingFS struct {
	vfs.FS
	fsyncs, renames, bytesWritten atomic.Int64
	syncNanos                     atomic.Int64
}

func (c *countingFS) sync(f func() error) error {
	t0 := time.Now()
	err := f()
	c.syncNanos.Add(int64(time.Since(t0)))
	c.fsyncs.Add(1)
	return err
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

func (c *countingFS) Rename(oldpath, newpath string) error {
	c.renames.Add(1)
	return c.FS.Rename(oldpath, newpath)
}

func (c *countingFS) SyncDir(name string) error {
	return c.sync(func() error { return c.FS.SyncDir(name) })
}

type countingFile struct {
	vfs.File
	fs *countingFS
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.bytesWritten.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error { return f.fs.sync(f.File.Sync) }

// ---- analysis --------------------------------------------------------------

// spanTree indexes one pass's spans for self-time arithmetic.
type spanTree struct {
	spans    []span
	children map[int32][]*span
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: map[int32][]*span{}}
	for i := range spans {
		t.children[spans[i].Parent] = append(t.children[spans[i].Parent], &spans[i])
	}
	return t
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// self is the span's duration minus the part of it its children cover
// (children may overlap each other: parallel RPCs under one scatter).
func (t *spanTree) self(s *span) time.Duration {
	kids := append([]*span(nil), t.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, edge := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.dur() - time.Duration(covered)
}

// named returns the spans with the given name, in recording order.
func (t *spanTree) named(name string) []*span {
	var out []*span
	for i := range t.spans {
		if t.spans[i].Name == name {
			out = append(out, &t.spans[i])
		}
	}
	return out
}

// descendant returns the first span called name below s, or nil.
func (t *spanTree) descendant(s *span, name string) *span {
	for _, k := range t.children[s.ID] {
		if k.Name == name {
			return k
		}
		if d := t.descendant(k, name); d != nil {
			return d
		}
	}
	return nil
}

// selfByName sums self time per span name: the layer split of a pass.
func (t *spanTree) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i := range t.spans {
		out[t.spans[i].Name] += t.self(&t.spans[i])
	}
	return out
}

// writeSpans dumps spans as JSON for offline inspection.
func writeSpans(path string, spans []span) error {
	buf, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
