package main

// traced.go — the traced run. It is a separate run from the timed one:
// one client, fixed operation counts, every topology built with the
// decorators of trace.go installed. The chosen workload's pass runs twice
// on that topology, first with the tracer switched off and then on; the
// difference is the tracing overhead, and the second pass feeds the
// per-query counters. Metrics that belong to one topology (shard.*,
// remote.*, ingest.pipeline_self_ms) come from a short pass of that
// topology's workload, so a traced run of any workload reports every
// per-layer metric.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"nok"
	"nok/internal/core"
	"nok/internal/dewey"
	"nok/internal/obs"
	"nok/internal/shard"
	"nok/internal/vfs"
)

const (
	tracedReps    = 20 // times each query of the traced workload is sent
	homeReps      = 5  // the same for another topology's short pass
	tracedCommits = 3  // commits per base
)

// localVsSingle times the scatter mix on the in-process 4-shard collection
// and on the single store holding the same document.
func localVsSingle(local *shard.Store, single *nok.Store, mix []query) (float64, error) {
	timeMix := func(run func(expr string) error) (time.Duration, error) {
		var total time.Duration
		for _, q := range mix {
			lats := make([]float64, homeReps)
			for i := range lats {
				t0 := time.Now()
				if err := run(q.Expr); err != nil {
					return 0, err
				}
				lats[i] = float64(time.Since(t0))
			}
			total += time.Duration(median(lats))
		}
		return total, nil
	}
	sharded, err := timeMix(func(expr string) error { _, err := local.Query(expr); return err })
	if err != nil {
		return 0, err
	}
	plain, err := timeMix(func(expr string) error { _, err := single.Query(expr); return err })
	if err != nil {
		return 0, err
	}
	return float64(sharded) / float64(plain), nil
}

// pass is what one single-client pass over a workload observed.
type pass struct {
	queries    int
	queryLats  []float64 // ms
	commitLats []float64 // ms, big base
	smallLats  []float64 // ms, small base
	counters   map[string]int64
	respBytes  int64
	spans      *spanTree
}

// traceRun carries the state the passes share.
type traceRun struct {
	tp         *topology
	tr         *tracer
	ld         *loader
	rng        *rand.Rand
	nextBatch  int
	big, small [][][]byte // acknowledged batches, for verification
}

func counterDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// runPass sends every query of the workload's mix reps times, one at a
// time, and — for ingest — commits batches to the big base and then the
// small one. Counter deltas cover the queries only.
func (r *traceRun) runPass(ctx context.Context, workload string, reps, bigCommits, smallCommits int, record bool) (*pass, error) {
	r.tr.on.Store(record)
	defer r.tr.on.Store(false)
	p := &pass{}
	var buf bytes.Buffer
	failedBefore := r.ld.failed.Load()
	bytesBefore := r.ld.respBytes.Load()
	before := obs.Default.Snapshot().Counters
	for i := 0; i < reps; i++ {
		for _, q := range r.tp.mixes[workload] {
			lat, ok := r.ld.queryOnce(ctx, q, &buf)
			if ok {
				p.queryLats = append(p.queryLats, millis(lat))
			}
			p.queries++
		}
	}
	p.counters = counterDelta(before, obs.Default.Snapshot().Counters)
	p.respBytes = r.ld.respBytes.Load() - bytesBefore
	commit := func(d *dataset, n int, lats *[]float64, acked *[][][]byte) {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			docs := genBatch(r.rng, r.nextBatch)
			r.nextBatch++
			if lat, _, ok := r.ld.commit(ctx, d.URL, docs, &buf); ok {
				*lats = append(*lats, millis(lat))
				*acked = append(*acked, docs)
			}
		}
	}
	commit(r.tp.big, bigCommits, &p.commitLats, &r.big)
	commit(r.tp.small, smallCommits, &p.smallLats, &r.small)
	p.spans = newSpanTree(r.tr.take())
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if r.ld.failed.Load() != failedBefore {
		return nil, fmt.Errorf("%s pass: %v", workload, r.ld.firstErr)
	}
	return p, nil
}

// heapWatch samples the live heap while a pass runs.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			w.peak = max(w.peak, s[0].Value.Uint64())
			select {
			case <-w.stop:
				return
			case <-t.C:
			}
		}
	}()
	return w
}

func (w *heapWatch) end() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}

func sum(xs []float64) (t float64) {
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runTraced is one traced run of cfg.Workload. It reports per-layer
// metrics only.
func runTraced(ctx context.Context, cfg config) (*result, error) {
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

	tr := newTracer()
	p.Treebank, p.Cluster, p.Mixes = true, true, []string{"nav", "point", "ingest", "scatter"}
	tp, err := buildTopology(root, cfg, p, tr)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	tp.describe(res)
	res.Metrics["core.load_knodes_per_s"] = single(float64(tp.big.Nodes) / 1000 / tp.big.CreateS)
	res.Metrics["shard.local_vs_single_ratio"] = single(tp.localVsSingle)

	r := &traceRun{tp: tp, tr: tr, ld: newLoader(1, tr), rng: rand.New(rand.NewSource(cfg.Seed + 10))}
	defer r.ld.close()
	for _, mix := range tp.mixes {
		r.ld.warm(ctx, mix)
	}

	// The traced workload, tracer off then on.
	commits := 0
	if cfg.Workload == "ingest" {
		commits = tracedCommits
	}
	off, err := r.runPass(ctx, cfg.Workload, tracedReps, commits, commits, false)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, pause0 := ms.TotalAlloc, ms.PauseTotalNs
	heap := watchHeap()
	on, err := r.runPass(ctx, cfg.Workload, tracedReps, commits, commits, true)
	peak := heap.end()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms)
	ops := on.queries + len(on.commitLats) + len(on.smallLats)
	res.Metrics["runtime.alloc_kb_per_op"] = single(float64(ms.TotalAlloc-alloc0) / 1024 / float64(ops))
	res.Metrics["runtime.gc_pause_ms"] = single(millis(time.Duration(ms.PauseTotalNs - pause0)))
	res.Metrics["runtime.peak_heap_mb"] = single(float64(peak) / (1 << 20))

	c, q := on.counters, int64(on.queries)
	res.Metrics["stree.pages_examined_per_query"] = single(ratio(c["nok_stree_pages_examined_total"], q))
	res.Metrics["stree.pages_skipped_per_query"] = single(ratio(c["nok_stree_pages_skipped_total"], q))
	res.Metrics["pager.hit_ratio"] = single(ratio(c["nok_pager_cache_hits_total"], c["nok_pager_cache_hits_total"]+c["nok_pager_physical_reads_total"]))
	res.Metrics["pager.physical_reads_per_op"] = single(ratio(c["nok_pager_physical_reads_total"], q))
	res.Metrics["vstore.reads_per_query"] = single(ratio(c["nok_vstore_reads_total"], q))
	res.Metrics["join.items_per_query"] = single(ratio(c["nok_join_input_items_total"], q))
	res.Metrics["planner.cache_hit_ratio"] = single(ratio(c["nok_plan_cache_hits_total"], c["nok_plan_cache_hits_total"]+c["nok_plan_cache_misses_total"]))
	res.Metrics["server.resp_bytes_per_query"] = single(ratio(on.respBytes, q))

	offLats, onLats := off.queryLats, on.queryLats
	if cfg.Workload == "ingest" {
		offLats, onLats = off.commitLats, on.commitLats
	}
	// Total time of the two passes, not their medians: both send the same
	// requests in the same order, and the median of a mix of 1 ms and
	// 100 ms classes is whichever sample sits on the gap.
	res.Metrics["trace.overhead_frac"] = single(sum(onLats)/sum(offLats) - 1)
	var selfUs, covered []float64
	for _, root := range on.spans.named("client.request") {
		covered = append(covered, 1-float64(on.spans.self(root))/float64(root.dur()))
		if b := on.spans.descendant(root, "server.backend.query"); b != nil {
			selfUs = append(selfUs, micros(root.dur()-b.dur()))
		}
	}
	res.Metrics["server.self_us"] = spread(selfUs, len(selfUs))
	res.Metrics["trace.coverage_frac"] = spread(covered, len(covered))
	res.Info["self_time_share"] = shares(on.spans)

	// Topology-bound metrics from their own workload's pass.
	scatter, ingest := on, on
	if cfg.Workload != "scatter" {
		if scatter, err = r.runPass(ctx, "scatter", homeReps, 0, 0, true); err != nil {
			return nil, err
		}
	}
	if cfg.Workload != "ingest" {
		// pipeline self time does not depend on the base; the small one is
		// four times cheaper to commit to.
		if ingest, err = r.runPass(ctx, "ingest", 0, 0, tracedCommits, true); err != nil {
			return nil, err
		}
	}
	scatterMetrics(res, scatter)
	var pipeline []float64
	for _, root := range ingest.spans.named("client.request") {
		if b := ingest.spans.descendant(root, "server.backend.insert_batch"); b != nil {
			pipeline = append(pipeline, millis(root.dur()-b.dur()))
		}
	}
	res.Metrics["ingest.pipeline_self_ms"] = spread(pipeline, len(pipeline))

	// In-process and micro probes on the live topology.
	stores := map[string]*nok.Store{"dblp": tp.big.store, "treebank": tp.tb.store}
	if err := errors.Join(
		examinedPerResult(res, stores, tp.mixes[cfg.Workload]),
		probeCoreQueries(res, tp.big.store),
		probeFrontEnd(res, tp.big.store, tp.mixes["point"]),
		probeHTTPFloor(ctx, res, r.ld, tp.big.URL),
		probeWire(res, genBatch(r.rng, r.nextBatch)),
		probeSax(res, tp.big.XMLPath),
	); err != nil {
		return nil, err
	}
	probeJoin(res)
	if err := probePager(res, root.dir); err != nil {
		return nil, err
	}
	if err := r.probeCommits(ctx, res, root.dir); err != nil {
		return nil, err
	}

	// Stop serving and check the bases that took commits.
	r.ld.close()
	if err := root.closeAll(); err != nil {
		return nil, err
	}
	if err := errors.Join(verifyBase(tp.big, r.big, tp.recount), verifyBase(tp.small, r.small, tp.recount)); err != nil {
		return nil, err
	}
	if cfg.Workdir != "" {
		// The run directory is removed on return; the spans go next to it.
		path := filepath.Join(cfg.Workdir, "trace-"+cfg.Workload+".json")
		if err := writeSpans(path, on.spans.spans); err != nil {
			return nil, err
		}
		res.Info["trace_file"] = path
	}
	res.Attempted, res.Failed = r.ld.attempted.Load(), r.ld.failed.Load()
	res.Correct = res.Failed == 0
	return res, nil
}

// scatterMetrics derives the shard and remote layer metrics from a pass
// over the cluster: per coordinator evaluation, the time no member RPC
// covers is the coordinator's own (prune, remap, k-way merge); per RPC,
// the time the member's backend does not cover is wire and server cost.
func scatterMetrics(res *result, p *pass) {
	var mergeSelf, slowest, rpcSelf []float64
	for _, b := range p.spans.named("server.backend.query") {
		rpcs := 0
		var worst time.Duration
		for _, k := range p.spans.children[b.ID] {
			if k.Name != "remote.rpc" {
				continue
			}
			rpcs++
			worst = max(worst, k.dur())
			self := k.dur()
			if m := p.spans.descendant(k, "member.backend.query"); m != nil {
				self -= m.dur()
			}
			rpcSelf = append(rpcSelf, millis(self))
		}
		if rpcs > 0 {
			mergeSelf = append(mergeSelf, millis(p.spans.self(b)))
			slowest = append(slowest, millis(worst))
		}
	}
	res.Metrics["shard.merge_self_ms"] = spread(mergeSelf, len(mergeSelf))
	res.Metrics["shard.slowest_shard_ms"] = spread(slowest, len(slowest))
	res.Metrics["remote.rpc_self_ms"] = spread(rpcSelf, len(rpcSelf))
	res.Metrics["shard.pruned_frac"] = single(ratio(p.counters["nok_shard_skipped_total"], p.counters["nok_shard_fanout_total"]))
	res.Metrics["remote.retries_per_query"] = single(ratio(p.counters["nok_remote_retries_total"], int64(p.queries)))
}

// shares is the layer split of a pass: each span name's self time as a
// share of all client-observed time.
func shares(t *spanTree) map[string]float64 {
	var total time.Duration
	for _, root := range t.named("client.request") {
		total += root.dur()
	}
	out := map[string]float64{}
	for name, self := range t.selfByName() {
		out[name] = float64(self) / float64(total)
	}
	return out
}

// probeCommits loads private copies of both bases through a counting
// vfs.FS and commits batches straight into core.DB: the commit without
// HTTP, the pipeline or a concurrent reader, and with every fsync, rename
// and written byte counted. The big copy also serves the stree, btree and
// vstore probes before it is written to.
func (r *traceRun) probeCommits(ctx context.Context, res *result, scratch string) error {
	for _, base := range []struct {
		d      *dataset
		metric string
	}{{r.tp.big, "core.commit_ms"}, {r.tp.small, "core.commit_small_ms"}} {
		cfs := &countingFS{FS: vfs.OS}
		dir := filepath.Join(scratch, "direct-"+filepath.Base(base.d.Dir))
		db, err := core.LoadXMLFile(dir, base.d.XMLPath, &core.Options{FS: cfs})
		if err != nil {
			return err
		}
		big := base.d == r.tp.big
		if big {
			nodes, err := probeTree(res, db)
			if err == nil {
				err = errors.Join(probeBtree(res, db, nodes, scratch), probeVstore(res, db, scratch))
			}
			if err != nil {
				db.Close()
				return err
			}
		}
		cfs.fsyncs.Store(0)
		cfs.renames.Store(0)
		cfs.bytesWritten.Store(0)
		cfs.syncNanos.Store(0)
		before := obs.Default.Snapshot().Counters
		var lats []float64
		var xmlBytes int64
		for i := 0; i < tracedCommits && ctx.Err() == nil; i++ {
			docs := genBatch(r.rng, r.nextBatch)
			r.nextBatch++
			readers := make([]io.Reader, len(docs))
			for j, d := range docs {
				readers[j] = bytes.NewReader(d)
				xmlBytes += int64(len(d))
			}
			t0 := time.Now()
			err := db.InsertFragmentBatch(dewey.Root(), readers)
			lats = append(lats, millis(time.Since(t0)))
			if err != nil {
				db.Close()
				return err
			}
		}
		delta := counterDelta(before, obs.Default.Snapshot().Counters)
		if err := db.Close(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		res.Metrics[base.metric] = spread(lats, len(lats))
		if big {
			n := float64(len(lats))
			res.Metrics["vfs.fsyncs_per_commit"] = single(float64(cfs.fsyncs.Load()) / n)
			res.Metrics["vfs.renames_per_commit"] = single(float64(cfs.renames.Load()) / n)
			res.Metrics["vfs.bytes_written_per_commit"] = single(float64(cfs.bytesWritten.Load()) / n)
			res.Metrics["vfs.write_amp"] = single(float64(cfs.bytesWritten.Load()) / float64(xmlBytes))
			res.Metrics["vfs.sync_ms_per_commit"] = single(millis(time.Duration(cfs.syncNanos.Load())) / n)
			res.Metrics["pager.cow_copies_per_commit"] = single(float64(delta["nok_pager_cow_copies_total"]) / n)
			res.Metrics["btree.inserts_per_commit"] = single(float64(delta["nok_btree_inserts_total"]) / n)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return nil
}
