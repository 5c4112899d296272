package main

// workloads.go — set-up, the timed phases and the checks after them.
//
// Every workload has the same three parts. Set-up generates the documents
// from the seed, loads them and builds the oracle. The read phase is a
// closed loop of `clients` keep-alive connections for `seconds`. The write
// phase sends durable 100-document POST /ingest commits to the big base
// and then to the scale-1 base. The workloads differ in the read mix, in
// the topology the reads cross, and in whether reads and writes overlap:
// only `ingest` runs them at the same time, and it is the only workload
// whose commits are slowed by a reader or whose reads are slowed by a
// writer. The others write after they have read, so that each run reports
// all eight end-to-end metrics.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"nok"
	"nok/internal/domnav"
	"nok/internal/shard"
)

// config is one run's settings; the flags of main.go fill it.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Scale    int // datagen scale of the big bases; the small base is scale 1
	Clients  int // closed-loop client connections: nproc
	Workdir  string
}

// navPool is nav's PoolPages: more frames than any page file of a scale-4
// store has pages (the largest, the Dewey index, has about 2 000), so
// after warm-up every Get is a hit.
const navPool = 8192

// parts selects what a topology contains.
type parts struct {
	Pool     int      // PoolPages of the stores that serve reads; 0 is the default 256
	Treebank bool     // a treebank store next to dblp
	Cluster  bool     // the 4-shard collection with remote members
	Mixes    []string // workloads whose read mix gets oracle counts
}

func partsFor(workload string) (parts, error) {
	switch workload {
	case "nav":
		return parts{Pool: navPool, Treebank: true, Mixes: []string{"nav"}}, nil
	case "point":
		return parts{Treebank: true, Mixes: []string{"point"}}, nil
	case "scatter":
		return parts{Cluster: true, Mixes: []string{"scatter"}}, nil
	case "ingest":
		return parts{Mixes: []string{"ingest"}}, nil
	}
	return parts{}, fmt.Errorf("BENCHMARK.json names a workload this program does not implement: %q", workload)
}

// topology is a built set-up: stores behind servers and the read mixes
// with their oracle counts.
type topology struct {
	big     *dataset // dblp at cfg.Scale: takes the big-base commits
	tb      *dataset // treebank at cfg.Scale
	small   *dataset // dblp at scale 1: takes the small-base commits
	cluster *cluster
	mixes   map[string][]query
	recount []query // dblp queries recounted against the model after ingest

	// localVsSingle is filled by the traced set-up only: the in-process
	// 4-shard collection against the single store on the scatter mix.
	localVsSingle float64
}

// buildTopology is set-up: datagen, CreateFromFile / shard.CreateFromFile,
// the DOM oracle, and the servers, with all files under e.dir. Its wall
// time is setup_s.
func buildTopology(e *env, cfg config, p parts, tr *tracer) (*topology, error) {
	tp := &topology{mixes: map[string][]query{}}
	dir := e.dir
	var err error
	if tp.big, err = generate(dir, "dblp", cfg.Scale, cfg.Seed, "dblp"); err != nil {
		return nil, err
	}
	if tp.small, err = generate(dir, "dblp", 1, cfg.Seed+1, "small"); err != nil {
		return nil, err
	}
	for _, d := range []*dataset{tp.big, tp.small} {
		pool := 0
		if d == tp.big {
			pool = p.Pool
		}
		if err := d.create(pool); err != nil {
			return nil, err
		}
		d.URL = e.serve(d.store, tr, "server")
	}

	dblpDOM, err := parseDOMFile(tp.big.XMLPath)
	if err != nil {
		return nil, err
	}
	if uint64(dblpDOM.NumNodes()) != tp.big.Nodes {
		return nil, fmt.Errorf("dblp: store has %d nodes, oracle %d", tp.big.Nodes, dblpDOM.NumNodes())
	}
	if tp.recount, err = classQueries("dblp", 9, 10); err != nil {
		return nil, err
	}

	var tbDOM *domnav.Doc
	if p.Treebank {
		if tp.tb, err = generate(dir, "treebank", cfg.Scale, cfg.Seed+2, "treebank"); err != nil {
			return nil, err
		}
		if err := tp.tb.create(p.Pool); err != nil {
			return nil, err
		}
		tp.tb.URL = e.serve(tp.tb.store, tr, "server")
		if tbDOM, err = parseDOMFile(tp.tb.XMLPath); err != nil {
			return nil, err
		}
	}

	for _, w := range p.Mixes {
		var mix []query
		switch w {
		case "nav", "point":
			from, to := 1, 8
			if w == "nav" {
				from, to = 9, 12
			}
			d, err1 := classQueries("dblp", from, to)
			t, err2 := classQueries("treebank", from, to)
			if err := errors.Join(err1, err2, fillWants(dblpDOM, d, tp.big.URL), fillWants(tbDOM, t, tp.tb.URL)); err != nil {
				return nil, err
			}
			mix = append(d, t...)
		case "ingest":
			if mix, err = classQueries("dblp", 1, 8); err == nil {
				err = fillWants(dblpDOM, mix, tp.big.URL)
			}
			if err != nil {
				return nil, err
			}
		case "scatter":
			hi, err1 := classQueries("dblp", 1, 4)
			lo, err2 := classQueries("dblp", 9, 12)
			mix = append(hi, lo...)
			if err := errors.Join(err1, err2, fillWants(dblpDOM, mix, "")); err != nil {
				return nil, err
			}
		}
		tp.mixes[w] = mix
	}

	if p.Cluster {
		probe := func(local *shard.Store) error {
			kept, err := shardable(local, tp.mixes["scatter"])
			tp.mixes["scatter"] = kept
			if err == nil && tr != nil {
				tp.localVsSingle, err = localVsSingle(local, tp.big.store, kept)
			}
			return err
		}
		if tp.cluster, err = e.createCluster(tp.big, tr, probe); err != nil {
			return nil, err
		}
		for i := range tp.mixes["scatter"] {
			tp.mixes["scatter"][i].URL = tp.cluster.URL
		}
	}
	return tp, nil
}

// shardable keeps the queries the scatter executor accepts and checks the
// in-process collection against the oracle before any of it goes remote.
func shardable(local *shard.Store, mix []query) ([]query, error) {
	var kept []query
	for _, q := range mix {
		rs, err := local.Query(q.Expr)
		if errors.Is(err, shard.ErrNotShardable) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("sharded %s: %w", q.Expr, err)
		}
		if len(rs) != q.Want {
			return nil, fmt.Errorf("sharded %s: %d results, oracle %d", q.Expr, len(rs), q.Want)
		}
		kept = append(kept, q)
	}
	if len(kept) == 0 {
		return nil, errors.New("no shardable query in the scatter mix")
	}
	return kept, nil
}

// storeDirs lists every store directory of the topology and the bytes of
// XML that were loaded into them.
func (tp *topology) storeDirs() (dirs []string, xmlBytes int64) {
	for _, d := range []*dataset{tp.big, tp.small, tp.tb} {
		if d != nil {
			dirs = append(dirs, d.Dir)
			xmlBytes += d.XMLBytes
		}
	}
	if tp.cluster != nil {
		dirs = append(dirs, tp.cluster.Dir)
		xmlBytes += tp.big.XMLBytes
	}
	return dirs, xmlBytes
}

// result is what one run of one workload reports.
type result struct {
	Workload   string          `json:"workload"`
	Correct    bool            `json:"correct"`
	Attempted  int64           `json:"attempted"`
	Failed     int64           `json:"failed"`
	FirstError string          `json:"first_error,omitempty"`
	Metrics    map[string]stat `json:"metrics"`
	Info       map[string]any  `json:"info,omitempty"`
}

// commitsFor is how many commits the ingest workload sends to each base:
// five in a 10-second run, twelve from 24 seconds up, one in a smoke run.
func commitsFor(seconds float64) int {
	return min(max(int(seconds*0.5+0.5), 1), 12)
}

// tailCommitsFor is how many commits the read workloads send to each base
// after their read phase: three, unless ingest itself would send fewer.
func tailCommitsFor(seconds float64) int { return min(commitsFor(seconds), 3) }

// batches generates n commits' worth of documents from the seed.
func batches(seed int64, n int) [][][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]byte, n)
	for i := range out {
		out[i] = genBatch(rng, i)
	}
	return out
}

func batchBytes(bs [][][]byte) (n int64) {
	for _, docs := range bs {
		for _, d := range docs {
			n += int64(len(d))
		}
	}
	return n
}

// runWorkload is one untraced run: set-up, read phase, write phase,
// verification. End-to-end metrics only; nothing is decorated.
func runWorkload(ctx context.Context, cfg config) (*result, error) {
	p, err := partsFor(cfg.Workload)
	if err != nil {
		return nil, err
	}
	root, err := newEnv(cfg.Workdir)
	if err != nil {
		return nil, err
	}
	defer root.Close()
	res := &result{Workload: cfg.Workload, Metrics: map[string]stat{}, Info: map[string]any{}}

	t0 := time.Now()
	tp, err := buildTopology(root, cfg, p, nil)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	res.Metrics["setup_s"] = single(time.Since(t0).Seconds())
	tp.describe(res)

	ld := newLoader(max(cfg.Clients, 2), nil) // ingest needs a writer's connection beside one reader's
	defer ld.close()
	mix := tp.mixes[cfg.Workload]
	ld.warm(ctx, mix)
	phase := time.Duration(cfg.Seconds * float64(time.Second))

	var samples []sample
	var readFor time.Duration
	var bigLats []float64
	var bigWall time.Duration
	var big, small [][][]byte
	if cfg.Workload == "ingest" {
		// One writer; every other client reads the point mix from the
		// store the commits land in, for as long as the commits take.
		n := commitsFor(cfg.Seconds)
		big, small = batches(cfg.Seed+10, n), batches(cfg.Seed+11, n)
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			samples, readFor = ld.readPhase(ctx, mix, max(cfg.Clients-1, 1), cfg.Seed, stop)
		}()
		bigLats, bigWall = ld.commitPhase(ctx, tp.big.URL, big)
		close(stop)
		<-done
	} else {
		samples, readFor = ld.timedReadPhase(ctx, mix, cfg.Clients, cfg.Seed, phase)
		n := tailCommitsFor(cfg.Seconds)
		big, small = batches(cfg.Seed+10, n), batches(cfg.Seed+11, n)
		bigLats, bigWall = ld.commitPhase(ctx, tp.big.URL, big)
	}
	smallLats, _ := ld.commitPhase(ctx, tp.small.URL, small)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res.Attempted, res.Failed = ld.attempted.Load(), ld.failed.Load()
	if ld.firstErr != nil {
		res.FirstError = ld.firstErr.Error()
	}
	if len(bigLats) == 0 || len(smallLats) == 0 {
		return res, fmt.Errorf("no commit was acknowledged: %s", res.FirstError)
	}
	qps, p50, p95, err := readMetrics(samples, readFor)
	if err != nil {
		return res, err
	}
	res.Info["classes"] = classStats(mix, samples)
	res.Metrics["query_qps"] = qps
	res.Metrics["query_p50_ms"] = p50
	res.Metrics["query_p95_ms"] = p95
	res.Metrics["commit_p50_ms"] = spread(bigLats, len(bigLats))
	res.Metrics["commit_small_p50_ms"] = spread(smallLats, len(smallLats))
	// Documents over the wall time of the big-base commits; the slowest and
	// the fastest commit's own rates are the spread.
	rates := make([]float64, len(bigLats))
	for i, ms := range bigLats {
		rates[i] = docsPerCommit / (ms / 1000)
	}
	docsPerS := spread(rates, len(rates))
	docsPerS.Value = float64(len(bigLats)*docsPerCommit) / bigWall.Seconds()
	res.Metrics["ingest_docs_per_s"] = docsPerS

	// Stop serving, then check what is on disk: the stores are closed by
	// their servers, reopened from the directory, and compared with a DOM
	// that received the same documents.
	ld.close()
	if err := root.closeAll(); err != nil {
		return res, err
	}
	if err := errors.Join(verifyBase(tp.big, big, tp.recount), verifyBase(tp.small, small, tp.recount)); err != nil {
		return res, err
	}
	dirs, xmlBytes := tp.storeDirs()
	onDisk, err := diskBytes(dirs...)
	if err != nil {
		return res, err
	}
	res.Metrics["disk_bytes_per_xml_byte"] = single(float64(onDisk) / float64(xmlBytes+batchBytes(big)+batchBytes(small)))
	res.Correct = res.Failed == 0
	return res, nil
}

// verifyBase reopens a store that took commits and checks it against the
// model: every acknowledged document is there after Close + Open, the node
// count is the base plus exactly the nodes sent, the recounted queries
// agree with the DOM, one epoch was published per commit, and the quick
// integrity check is clean.
func verifyBase(d *dataset, committed [][][]byte, recount []query) error {
	model, err := appendedDOM(d.XMLPath, committed)
	if err != nil {
		return err
	}
	st, err := nok.Open(d.Dir, nil)
	if err != nil {
		return fmt.Errorf("reopen %s: %w", d.Dir, err)
	}
	defer st.Close()
	if got, want := st.NodeCount(), uint64(model.NumNodes()); got != want {
		return fmt.Errorf("%s: %d nodes after ingest, model has %d", d.Dir, got, want)
	}
	if got, want := st.Epoch(), uint64(1+len(committed)); got != want {
		return fmt.Errorf("%s: epoch %d after %d commits, want %d", d.Dir, got, len(committed), want)
	}
	for _, q := range recount {
		want, err := domCount(model, q.Expr)
		if err != nil {
			return err
		}
		rs, err := st.Query(q.Expr)
		if err != nil {
			return fmt.Errorf("%s: %s: %w", d.Dir, q.Expr, err)
		}
		if len(rs) != want {
			return fmt.Errorf("%s: %s: %d results after ingest, model has %d", d.Dir, q.Expr, len(rs), want)
		}
	}
	if v := st.Verify(false); !v.OK() {
		return fmt.Errorf("%s: verify: %v", d.Dir, v.Issues)
	}
	return st.Close()
}

// describe records the sizes README.md quotes: nodes, XML bytes and page
// files against the pool.
func (tp *topology) describe(res *result) {
	for name, d := range map[string]*dataset{"big": tp.big, "small": tp.small, "treebank": tp.tb} {
		if d != nil {
			res.Info[name] = map[string]any{"dataset": d.Name, "scale": d.Scale, "nodes": d.Nodes,
				"xml_bytes": d.XMLBytes, "pages": d.Pages, "create_s": d.CreateS}
		}
	}
	if tp.cluster != nil {
		res.Info["cluster"] = map[string]any{"shards": clusterShards, "create_s": tp.cluster.CreateS}
	}
}
