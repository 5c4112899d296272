package main

// layers.go — per-module micro-costs, measured by timing calls into each
// module's exported functions over the traced run's own dblp data. Every
// loop has a fixed iteration count, so counts repeat exactly for a seed
// and times are comparable between two commits.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"nok"
	"nok/internal/btree"
	"nok/internal/core"
	"nok/internal/dewey"
	"nok/internal/ingest"
	"nok/internal/join"
	"nok/internal/pager"
	"nok/internal/pattern"
	"nok/internal/remote"
	"nok/internal/sax"
	"nok/internal/stats"
	"nok/internal/stree"
	"nok/internal/symtab"
	"nok/internal/vstore"
)

// nsPer reports elapsed nanoseconds per item.
func nsPer(d time.Duration, items int) stat { return single(float64(d) / float64(items)) }

// probeSample is how many nodes of the document the navigation and index
// probes touch, spread evenly over document order.
const probeSample = 20000

type treeNode struct {
	pos stree.Pos
	id  dewey.ID
}

// probeSax times sax.Scanner.Next over the dataset's XML.
func probeSax(res *result, xmlPath string) error {
	xml, err := os.ReadFile(xmlPath)
	if err != nil {
		return err
	}
	sc := sax.NewScanner(bytes.NewReader(xml))
	events := 0
	t0 := time.Now()
	for {
		if _, err := sc.Next(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		events++
	}
	res.Metrics["sax.ns_per_event"] = nsPer(time.Since(t0), events)
	return nil
}

// probeTree times the navigation primitives and a full scan of an opened
// tree.pg, and returns the sampled nodes for the index probes.
func probeTree(res *result, db *core.DB) ([]treeNode, error) {
	tree := db.Tree
	stride := max(int(tree.NodeCount())/probeSample, 1)
	var nodes []treeNode
	var syms []symtab.Sym
	var levels []int
	n := 0
	t0 := time.Now()
	err := tree.Scan(func(pos stree.Pos, sym symtab.Sym, level int, id dewey.ID) bool {
		if n%stride == 0 {
			nodes = append(nodes, treeNode{pos, id.Clone()})
		}
		syms, levels = append(syms, sym), append(levels, level)
		n++
		return true
	})
	if err != nil {
		return nil, err
	}
	res.Metrics["stree.scan_ns_per_node"] = nsPer(time.Since(t0), n)

	t0 = time.Now()
	for _, nd := range nodes {
		if _, _, err := tree.FirstChild(nd.pos); err != nil {
			return nil, err
		}
	}
	res.Metrics["stree.first_child_ns"] = nsPer(time.Since(t0), len(nodes))
	t0 = time.Now()
	for _, nd := range nodes {
		if _, _, err := tree.FollowingSibling(nd.pos); err != nil {
			return nil, err
		}
	}
	res.Metrics["stree.following_sibling_ns"] = nsPer(time.Since(t0), len(nodes))
	t0 = time.Now()
	for _, nd := range nodes {
		if _, err := tree.SubtreeEnd(nd.pos); err != nil {
			return nil, err
		}
	}
	res.Metrics["stree.subtree_end_ns"] = nsPer(time.Since(t0), len(nodes))

	probeStats(res, syms, levels, uint64(tree.NumPages()))
	return nodes, nil
}

// probeStats times folding a 100-document delta into the store's synopsis
// and encoding the result — the statistics work of one commit.
func probeStats(res *result, syms []symtab.Sym, levels []int, pages uint64) {
	full := stats.NewBuilder()
	for i := range syms {
		full.Node(syms[i], levels[i])
	}
	prev := full.Finish(1, pages)
	// The delta is the first hundred top-level records, replayed under the
	// root as if they had just been appended.
	delta := stats.NewDeltaBuilder(syms[:1])
	for i, docs := 1, 0; i < len(syms); i++ {
		if levels[i] == 2 {
			if docs++; docs > docsPerCommit {
				break
			}
		}
		delta.Node(syms[i], levels[i])
	}
	d := delta.Delta()
	const reps = 20
	var merged *stats.Synopsis
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		merged = stats.Merge(prev, d)
	}
	res.Metrics["stats.merge_us"] = single(micros(time.Since(t0)) / reps)
	t0 = time.Now()
	for i := 0; i < reps; i++ {
		stats.Encode(merged)
	}
	res.Metrics["stats.encode_us"] = single(micros(time.Since(t0)) / reps)
}

// probeBtree times point probes and a full scan of the store's Dewey
// index (opened with the default 256-page pool, so probes on a scale-4
// index include pool misses), and inserts into a scratch tree.
func probeBtree(res *result, db *core.DB, nodes []treeNode, scratch string) error {
	var pages uint64
	t0 := time.Now()
	for _, nd := range nodes {
		if _, ok, err := db.DeweyIdx.GetCounted(nd.id.Bytes(), &pages); err != nil || !ok {
			return fmt.Errorf("dewey index probe %s: found=%v err=%v", nd.id, ok, err)
		}
	}
	res.Metrics["btree.probe_ns"] = nsPer(time.Since(t0), len(nodes))
	res.Metrics["btree.pages_per_probe"] = single(float64(pages) / float64(len(nodes)))

	keys := 0
	t0 = time.Now()
	it := db.DeweyIdx.First()
	for it.Next() {
		keys++
	}
	if err := it.Err(); err != nil {
		return err
	}
	res.Metrics["btree.scan_ns_per_key"] = nsPer(time.Since(t0), keys)

	pf, err := pager.Create(filepath.Join(scratch, "insert.pg"), nil)
	if err != nil {
		return err
	}
	defer pf.Close()
	tree, err := btree.Create(pf)
	if err != nil {
		return err
	}
	const inserts = 50000
	rng := rand.New(rand.NewSource(1))
	var key, val [8]byte
	t0 = time.Now()
	for i := 0; i < inserts; i++ {
		binary.BigEndian.PutUint64(key[:], rng.Uint64())
		if err := tree.Insert(key[:], val[:]); err != nil {
			return err
		}
	}
	res.Metrics["btree.insert_ns"] = nsPer(time.Since(t0), inserts)
	return tree.Flush()
}

// probePager times Get+Unpin of a resident page, and of a page that has to
// be read and CRC-verified because an 8-frame pool is cycled over a
// 512-page file.
func probePager(res *result, scratch string) error {
	path := filepath.Join(scratch, "pool.pg")
	pf, err := pager.Create(path, nil)
	if err != nil {
		return err
	}
	const filePages = 512
	ids := make([]pager.PageID, filePages)
	for i := range ids {
		p, err := pf.Allocate()
		if err != nil {
			pf.Close()
			return err
		}
		binary.BigEndian.PutUint64(p.Data(), uint64(i))
		p.MarkDirty()
		ids[i] = p.ID()
		pf.Unpin(p)
	}
	if err := pf.Close(); err != nil {
		return err
	}
	cycle := func(pool, rounds int) (time.Duration, error) {
		pf, err := pager.Open(path, &pager.Options{PoolPages: pool})
		if err != nil {
			return 0, err
		}
		defer pf.Close()
		var elapsed time.Duration
		for r := 0; r <= rounds; r++ {
			t0 := time.Now()
			for _, id := range ids {
				p, err := pf.Get(id)
				if err != nil {
					return 0, err
				}
				pf.Unpin(p)
			}
			if r > 0 { // round 0 fills the pool
				elapsed += time.Since(t0)
			}
		}
		return elapsed, nil
	}
	hit, err := cycle(2*filePages, 200)
	if err != nil {
		return err
	}
	miss, err := cycle(8, 8)
	if err != nil {
		return err
	}
	res.Metrics["pager.get_hit_ns"] = nsPer(hit, 200*filePages)
	res.Metrics["pager.get_miss_ns"] = nsPer(miss, 8*filePages)
	return nil
}

// probeVstore times value reads from the store's values.dat and appends
// to a scratch file.
func probeVstore(res *result, db *core.DB, scratch string) error {
	var offsets []int64
	if err := db.Values.Scan(func(off int64, _ []byte) bool {
		offsets = append(offsets, off)
		return true
	}); err != nil {
		return err
	}
	stride := max(len(offsets)/probeSample, 1)
	reads := 0
	t0 := time.Now()
	for i := 0; i < len(offsets); i += stride {
		if _, err := db.Values.Get(offsets[i]); err != nil {
			return err
		}
		reads++
	}
	res.Metrics["vstore.get_ns"] = nsPer(time.Since(t0), reads)

	vs, err := vstore.Create(filepath.Join(scratch, "append.dat"))
	if err != nil {
		return err
	}
	defer vs.Close()
	var buf []byte
	t0 = time.Now()
	for i := 0; i < probeSample; i++ {
		buf = fmt.Appendf(buf[:0], "value number %d of the append probe", i)
		if _, err := vs.Append(buf); err != nil {
			return err
		}
	}
	if err := vs.Flush(); err != nil {
		return err
	}
	res.Metrics["vstore.append_ns"] = nsPer(time.Since(t0), probeSample)
	return nil
}

// probeJoin times StackJoin on generated interval lists: 20 000 ancestors
// with three descendants each.
func probeJoin(res *result) {
	const ancestors, reps = 20000, 5
	anc := make([]stree.Interval, ancestors)
	desc := make([]stree.Interval, 0, 3*ancestors)
	for i := range anc {
		base := uint64(i) * 100
		anc[i] = stree.Interval{Start: base, End: base + 90}
		for k := uint64(0); k < 3; k++ {
			desc = append(desc, stree.Interval{Start: base + 10 + 20*k, End: base + 20 + 20*k})
		}
	}
	pairs := 0
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		pairs += len(join.StackJoin(anc, desc))
	}
	if pairs != reps*len(desc) {
		panic(fmt.Sprintf("StackJoin returned %d pairs, want %d", pairs, reps*len(desc)))
	}
	res.Metrics["join.ns_per_input_item"] = nsPer(time.Since(t0), reps*(len(anc)+len(desc)))
}

// probeFrontEnd times what a request costs before evaluation starts:
// parsing the expression and asking the store for its plan.
func probeFrontEnd(res *result, st *nok.Store, mix []query) error {
	const reps = 50
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range mix {
			if _, err := pattern.Parse(q.Expr); err != nil {
				return err
			}
		}
	}
	res.Metrics["pattern.parse_us"] = single(micros(time.Since(t0)) / float64(reps*len(mix)))
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		for _, q := range mix {
			if _, err := st.Plan(q.Expr); err != nil {
				return err
			}
		}
	}
	res.Metrics["planner.plan_us"] = single(micros(time.Since(t0)) / float64(reps*len(mix)))

	const acquires = 100000
	t0 = time.Now()
	for i := 0; i < acquires; i++ {
		sn, err := st.Snapshot()
		if err != nil {
			return err
		}
		sn.Release()
	}
	res.Metrics["core.snapshot_acquire_ns"] = nsPer(time.Since(t0), acquires)
	return nil
}

// probeCoreQueries evaluates the twelve dblp classes in process and
// reports, per selectivity group, the mean of the per-query medians.
func probeCoreQueries(res *result, st *nok.Store) error {
	const reps = 20
	for _, g := range []struct {
		metric   string
		from, to int
	}{{"core.query_us_high", 1, 4}, {"core.query_us_mod", 5, 8}, {"core.query_us_low", 9, 12}} {
		qs, err := classQueries("dblp", g.from, g.to)
		if err != nil {
			return err
		}
		sum := 0.0
		for _, q := range qs {
			lats := make([]float64, reps)
			for i := range lats {
				t0 := time.Now()
				if _, _, err := st.QueryWithOptions(q.Expr, nil); err != nil {
					return err
				}
				lats[i] = micros(time.Since(t0))
			}
			sum += median(lats)
		}
		res.Metrics[g.metric] = single(sum / float64(len(qs)))
	}
	return nil
}

// examinedPerResult evaluates the mix in process and divides the nodes the
// matcher looked at (starting points, NPM calls, child visits) by the
// results it returned.
func examinedPerResult(res *result, stores map[string]*nok.Store, mix []query) error {
	examined, results := 0, 0
	for _, q := range mix {
		rs, qs, err := stores[q.Dataset].QueryWithOptions(q.Expr, nil)
		if err != nil {
			return err
		}
		examined += qs.StartingPoints + qs.NPMCalls + qs.NodesVisited
		results += len(rs)
	}
	res.Metrics["core.examined_per_result"] = single(float64(examined) / float64(results))
	return nil
}

// probeWire times the ingest splitter over one commit's body and the
// scatter frame codec over a thousand results.
func probeWire(res *result, docs [][]byte) error {
	body := bytes.Join(docs, nil)
	const reps = 20
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		sp := ingest.NewSplitter(bytes.NewReader(body))
		n := 0
		for {
			if _, err := sp.Next(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
			n++
		}
		if n != len(docs) {
			return fmt.Errorf("splitter cut %d documents out of %d", n, len(docs))
		}
	}
	res.Metrics["ingest.split_us_per_doc"] = single(micros(time.Since(t0)) / float64(reps*len(docs)))

	const results = 1000
	sr := &remote.ScatterResult{Epoch: 1, Stats: &nok.QueryStats{}}
	for i := 0; i < results; i++ {
		sr.Results = append(sr.Results, nok.Result{ID: fmt.Sprintf("0.%d.3", i+1), Tag: "title",
			Value: "succinct storage path query index", HasValue: true})
	}
	var buf bytes.Buffer
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		buf.Reset()
		if err := remote.WriteScatter(&buf, sr); err != nil {
			return err
		}
		back, err := remote.ReadScatter(&buf)
		if err != nil || len(back.Results) != results {
			return fmt.Errorf("scatter frame round trip: %d results, err %v", len(back.Results), err)
		}
	}
	res.Metrics["remote.frame_ns_per_result"] = nsPer(time.Since(t0), reps*results)
	return nil
}

// probeHTTPFloor is the round trip of a request that does no store work.
func probeHTTPFloor(ctx context.Context, res *result, ld *loader, base string) error {
	const reps = 500
	var buf bytes.Buffer
	lats := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		status, lat, err := ld.do(ctx, http.MethodGet, base+"/healthz", nil, &buf)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("healthz: HTTP %d, %v", status, err)
		}
		lats = append(lats, micros(lat))
	}
	res.Metrics["server.http_floor_us"] = spread(lats, reps)
	return nil
}
