// Command nokserve serves path queries over an open NoK store: a
// long-lived HTTP process with a bounded worker pool, admission control,
// an invalidating LRU result cache, per-request deadlines, Prometheus
// metrics, and graceful shutdown on SIGINT/SIGTERM. A directory holding a
// SHARDS manifest (built by nokload -shards) is served as a sharded
// collection: queries scatter across member stores in parallel, shards a
// query provably cannot match are pruned, and the result cache is
// invalidated per shard.
//
// Usage:
//
//	nokserve -db DIR [-addr :8080] [-workers N] [-queue N] [-cache N]
//	         [-timeout 10s] [-drain 30s]
//	         [-batch-docs N] [-batch-bytes N] [-batch-interval D] [-ingest-pending N]
//
// Endpoints: /query, /explain, /value/{id}, POST /insert, POST /ingest,
// DELETE /node/{id}, /stats, /metrics, /healthz[?deep=1] — see
// docs/SERVER.md and docs/INGEST.md. POST /ingest streams many documents
// through the shared group-commit pipeline (the -batch-* flags tune its
// flush triggers; overload answers 429 + Retry-After).
// A failed deep verification (or a mid-transaction update failure) flips
// the server into degraded read-only mode; restart the process to run
// recovery.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nok"
	"nok/internal/buildinfo"
	"nok/internal/ingest"
	"nok/internal/server"
	"nok/internal/shard"
	"nok/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nokserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store directory (required)")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker-pool size (default GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth (default 2×workers)")
	cache := fs.Int("cache", 0, "result-cache entries, -1 disables (default 1024)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-query deadline ceiling")
	queryTimeout := fs.Duration("query-timeout", 0, "alias for -timeout; the lower of the two wins when both are set")
	allowPartial := fs.Bool("allow-partial", false, "answer with degraded partial results when a shard is unreachable (per-request ?partial= overrides)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	debug := fs.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
	slowLog := fs.String("slow-log", "", "slow-query log destination: a file path, or \"stderr\"")
	slowThreshold := fs.Duration("slow-threshold", 250*time.Millisecond, "queries at least this slow go to the slow-query log")
	slowInterval := fs.Duration("slow-interval", time.Second, "minimum spacing between slow-query log lines")
	batchDocs := fs.Int("batch-docs", 0, "ingest: flush a batch at this many documents (default 256)")
	batchBytes := fs.Int64("batch-bytes", 0, "ingest: flush a batch at this many bytes (default 1MiB)")
	batchInterval := fs.Duration("batch-interval", 0, "ingest: flush a non-empty batch at least this often (default 200ms)")
	ingestPending := fs.Int64("ingest-pending", 0, "ingest: in-flight byte budget before 429 backpressure (default 8MiB)")
	version := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String())
		return 0
	}
	if *db == "" || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	var (
		st       server.Backend
		topology string
	)
	if shard.IsSharded(*db) {
		sst, err := shard.Open(*db, nil)
		if err != nil {
			fmt.Fprintf(stderr, "nokserve: %v\n", err)
			return 1
		}
		man := sst.Manifest()
		nRemote := 0
		for _, a := range man.Addrs {
			if a != "" {
				nRemote++
			}
		}
		topology = fmt.Sprintf(", %d shards (%s routing)", man.Shards, man.Strategy)
		if nRemote > 0 {
			topology += fmt.Sprintf(", %d remote", nRemote)
		}
		st = sst
	} else {
		sst, err := nok.Open(*db, nil)
		if err != nil {
			fmt.Fprintf(stderr, "nokserve: %v\n", err)
			return 1
		}
		if rec := sst.Recovery(); rec.Recovered() {
			fmt.Fprintf(stdout, "nokserve: recovered store at open: truncated=%d orphans_removed=%d\n",
				len(rec.TruncatedFiles), len(rec.OrphansRemoved))
		}
		st = sst
	}
	if *slowLog != "" {
		var w io.Writer
		if *slowLog == "stderr" {
			w = stderr
		} else {
			f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintf(stderr, "nokserve: slow log: %v\n", err)
				return 1
			}
			defer f.Close()
			w = f
		}
		telemetry.Default.SetSlowLog(w, *slowThreshold, *slowInterval)
	}
	deadline := *timeout
	if *queryTimeout > 0 && *queryTimeout < deadline {
		deadline = *queryTimeout
	}
	srv := server.NewBackend(st, server.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		QueryTimeout: deadline,
		EnablePprof:  *debug,
		AllowPartial: *allowPartial,
		Ingest: ingest.Options{
			BatchDocs:     *batchDocs,
			BatchBytes:    *batchBytes,
			BatchInterval: *batchInterval,
			MaxPending:    *ingestPending,
		},
	})

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(stdout, "nokserve: serving %s on %s (%d nodes%s)\n", *db, *addr, st.NodeCount(), topology)

	select {
	case <-ctx.Done():
		// Graceful shutdown: stop accepting, let in-flight requests finish,
		// then drain the query service and close the store.
		fmt.Fprintln(stdout, "nokserve: shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(stderr, "nokserve: http shutdown: %v\n", err)
		}
		if err := srv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(stderr, "nokserve: drain: %v\n", err)
			return 1
		}
		return 0
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "nokserve: %v\n", err)
			return 1
		}
		return 0
	}
}
