// Command nokload bulk-loads an XML document into a NoK store directory,
// or — with -shards — into a sharded collection of independent stores, or —
// with -follow — streams documents into an existing store through the
// group-commit ingest pipeline.
//
// Usage:
//
//	nokload -db DIR -xml FILE [-pagesize N] [-reserve PCT]
//	nokload -db DIR -xml FILE -shards N [-routing hash|path]
//	nokload -db DIR -addrs http://h1:8080,,http://h3:8080
//	nokload -db DIR -follow FILE|- [-parent ID] [-batch-docs N] [-batch-bytes N] [-batch-interval D] [-idle-exit D]
//
// With -shards, top-level documents under the collection root are split
// across N stores: -routing hash (default) balances by document ordinal,
// -routing path groups documents by their root tag so per-shard statistics
// can prune whole shards from tag-selective queries. See docs/SHARDING.md.
//
// With -addrs (and no -xml), an existing sharded collection is rewired to
// serve some or all shards from remote nokserve processes: the comma-
// separated list assigns one base URL per shard position, an empty entry
// keeping that shard local. See docs/FAULT_TOLERANCE.md.
//
// With -follow (and no -xml), the store must already exist — single or
// sharded, probed automatically. Documents read from FILE (tailed as it
// grows, like tail -f) or stdin are batched into group commits: many
// documents per MVCC epoch, the statistics synopsis maintained
// incrementally. -idle-exit D stops following after D without new data;
// the default follows until interrupted. See docs/INGEST.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"nok"
	"nok/internal/buildinfo"
	"nok/internal/ingest"
	"nok/internal/shard"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nokload:", err)
		return 1
	}
	fs := flag.NewFlagSet("nokload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store directory to create (required)")
	xml := fs.String("xml", "", "XML document to load (required unless -follow/-addrs)")
	pageSize := fs.Int("pagesize", 0, "page size in bytes (default 4096)")
	reserve := fs.Int("reserve", 0, "per-page update reserve percentage (default 20)")
	shards := fs.Int("shards", 0, "split the collection across N independent stores (0 = single store)")
	routing := fs.String("routing", "hash", "shard routing strategy: hash (balance by ordinal) or path (group by root tag)")
	addrs := fs.String("addrs", "", "comma-separated remote shard base URLs (one per shard position, empty = local); rewires an existing collection, no -xml")
	follow := fs.String("follow", "", "stream documents from FILE (- for stdin) into an existing store via group commit; tails the file as it grows")
	parent := fs.String("parent", "0", "with -follow, the node ID new documents append under")
	batchDocs := fs.Int("batch-docs", 0, "with -follow, flush a batch at this many documents (default 256)")
	batchBytes := fs.Int64("batch-bytes", 0, "with -follow, flush a batch at this many bytes (default 1MiB)")
	batchInterval := fs.Duration("batch-interval", 0, "with -follow, flush a non-empty batch at least this often (default 200ms)")
	idleExit := fs.Duration("idle-exit", 0, "with -follow FILE, exit after this long without new data (0 = follow until interrupted)")
	version := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String())
		return 0
	}
	if *addrs != "" {
		if *db == "" || *xml != "" {
			fs.Usage()
			return 2
		}
		list := strings.Split(*addrs, ",")
		if err := shard.SetShardAddrs(*db, list); err != nil {
			return fail(err)
		}
		for s, a := range list {
			if a == "" {
				fmt.Fprintf(stdout, "  shard %d: local\n", s)
			} else {
				fmt.Fprintf(stdout, "  shard %d: remote %s\n", s, a)
			}
		}
		return 0
	}
	if *follow != "" {
		if *db == "" || *xml != "" {
			fs.Usage()
			return 2
		}
		opt := ingest.Options{
			Parent:        *parent,
			BatchDocs:     *batchDocs,
			BatchBytes:    *batchBytes,
			BatchInterval: *batchInterval,
		}
		return followStream(*db, *follow, *idleExit, opt, stdin, stdout, stderr)
	}
	if *db == "" || *xml == "" {
		fs.Usage()
		return 2
	}
	opts := &nok.Options{PageSize: *pageSize, ReservePct: *reserve}
	t0 := time.Now()
	if *shards > 0 {
		strat := shard.Strategy(*routing)
		if strat != shard.StrategyHash && strat != shard.StrategyPath {
			return fail(fmt.Errorf("unknown -routing %q (want hash or path)", *routing))
		}
		st, err := shard.CreateFromFile(*db, *xml, &shard.Options{
			Shards: *shards, Strategy: strat, Store: opts,
		})
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		stats := st.Stats()
		man := st.Manifest()
		fmt.Fprintf(stdout, "loaded %s into %s in %v (%d shards, %s routing)\n",
			*xml, *db, time.Since(t0).Round(time.Millisecond), man.Shards, man.Strategy)
		fmt.Fprintf(stdout, "  nodes: %d   pages: %d   max depth: %d\n", stats.Nodes, stats.Pages, stats.MaxDepth)
		for s, assign := range man.Assign {
			fmt.Fprintf(stdout, "  shard %d: %d document(s)\n", s, len(assign))
		}
		syn := st.Synopsis(0)
		fmt.Fprintf(stdout, "  statistics synopsis: epoch %d, %d tags, %d paths (planner + shard pruning enabled)\n",
			syn.Epoch, syn.Tags, syn.Paths)
		return 0
	}
	st, err := nok.CreateFromFile(*db, *xml, opts)
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	stats := st.Stats()
	fmt.Fprintf(stdout, "loaded %s into %s in %v\n", *xml, *db, time.Since(t0).Round(time.Millisecond))
	fmt.Fprintf(stdout, "  nodes: %d   pages: %d   max depth: %d\n", stats.Nodes, stats.Pages, stats.MaxDepth)
	fmt.Fprintf(stdout, "  |tree|: %d bytes   values: %d bytes   headers in RAM: %d bytes\n",
		stats.TreeBytes, stats.ValueBytes, stats.HeaderBytes)
	syn := st.Synopsis(0)
	fmt.Fprintf(stdout, "  statistics synopsis: epoch %d, %d tags, %d paths (planner enabled)\n",
		syn.Epoch, syn.Tags, syn.Paths)
	return 0
}

// followTarget is ingest.Target plus the lifecycle both store kinds share,
// so followStream handles single and sharded collections uniformly.
type followTarget interface {
	ingest.Target
	Close() error
}

// followStream tails src (a growing file, or stdin for "-") into an
// existing store through the group-commit pipeline, until the input ends,
// the idle limit expires, or the process is interrupted.
func followStream(db, src string, idleExit time.Duration, opt ingest.Options, stdin io.Reader, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nokload:", err)
		return 1
	}
	var target followTarget
	if shard.IsSharded(db) {
		st, err := shard.Open(db, nil)
		if err != nil {
			return fail(err)
		}
		target = st
	} else {
		st, err := nok.Open(db, nil)
		if err != nil {
			return fail(err)
		}
		target = st
	}
	defer target.Close()

	var in io.Reader
	if src == "-" {
		// Stdin ends with a real EOF when the writer closes it; no polling.
		in = stdin
	} else {
		f, err := os.Open(src)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		tr := ingest.NewTailReader(f)
		tr.IdleLimit = idleExit
		in = tr
		// Interrupt stops the tail between documents; the pipeline then
		// flushes what was accepted before exiting.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		defer signal.Stop(sig)
		go func() {
			<-sig
			tr.Stop()
		}()
	}

	p := ingest.NewPipeline(target, opt)
	t0 := time.Now()
	sp := ingest.NewSplitter(in)
	var streamErr error
	for {
		doc, err := sp.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			streamErr = err
			break
		}
		for {
			err := p.Submit(doc)
			if err == nil {
				break
			}
			var bp *ingest.BackpressureError
			if !errors.As(err, &bp) {
				streamErr = err
				break
			}
			time.Sleep(bp.RetryAfter)
		}
		if streamErr != nil {
			break
		}
	}
	if err := p.Close(); err != nil && streamErr == nil {
		streamErr = err
	}
	stats := p.Stats()
	fmt.Fprintf(stdout, "followed %s into %s for %v\n", src, db, time.Since(t0).Round(time.Millisecond))
	fmt.Fprintf(stdout, "  documents: %d committed in %d group commit(s), %d rejected\n",
		stats.Docs, stats.Batches, stats.Rejected)
	fmt.Fprintf(stdout, "  bytes: %d   backpressure refusals: %d   epoch: %d\n",
		stats.Bytes, stats.Backpressured, target.Epoch())
	if stats.LastReject != "" {
		fmt.Fprintf(stdout, "  last rejection: %s\n", stats.LastReject)
	}
	if streamErr != nil {
		return fail(streamErr)
	}
	return 0
}
