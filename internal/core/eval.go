package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"nok/internal/join"
	"nok/internal/obs"
	"nok/internal/pattern"
	"nok/internal/planner"
	"nok/internal/stree"
	"nok/internal/telemetry"
)

// Process-wide query metrics, exposed through the default obs registry.
var (
	mQueries      = obs.Default.Counter("nok_queries_total", "path queries evaluated")
	mQueryErrors  = obs.Default.Counter("nok_query_errors_total", "path queries that returned an error")
	mQuerySeconds = obs.Default.Histogram("nok_query_seconds", "end-to-end query evaluation latency in seconds", obs.LatencyBuckets)
	mResults      = obs.Default.Counter("nok_query_results_total", "matches returned across all queries")
)

// This file is the query evaluator: it glues NoK pattern matching
// (Algorithm 1 / npm.go) to structural joins across the NoK partition
// graph, realizing the paper's two-step architecture — "first partition the
// pattern tree into interconnected NoK pattern trees, to which we apply the
// more efficient navigational pattern matching algorithm; then join the
// results of the NoK pattern matching based on their structural
// relationships".
//
// Evaluation proceeds in two phases:
//
//  1. Bottom-up: for every non-top partition T, compute ExtMatch(T) — the
//     subject nodes where T's NoK pattern matches *and* every descendant
//     link of T is satisfied. Child-link satisfaction is folded into NoK
//     matching as a predicate on the link-source node: "does some
//     ExtMatch(child) lie inside this node's interval?" — a containment
//     test on the paper's interval surrogate (§5), checked by binary
//     search on the sorted child match list.
//
//  2. Top-down: walk the partition chain from the top partition to the one
//     containing the returning node, narrowing starting points through
//     structural (containment) joins, and finally collect the returning
//     node's matches.
type QueryOptions struct {
	// Strategy forces a starting-point strategy; StrategyAuto asks the
	// cost-based planner.
	Strategy Strategy
	// DisablePlanner keeps StrategyAuto on the paper's §6.2 heuristic
	// (ablation knob, and the safety hatch should a plan ever misbehave).
	DisablePlanner bool
	// DisablePageSkip turns off the header-table page-skip optimization
	// in FOLLOWING-SIBLING (ablation benchmark).
	DisablePageSkip bool
	// DisableParallel keeps the bottom-up phase sequential even when the
	// plan marks the query parallel-eligible — an ablation switch and an
	// escape hatch for single-core deployments.
	DisableParallel bool
	// Trace, when non-nil, records the evaluation's timed phases (parse,
	// partition, starting-point lookup, NoK matching, structural joins) as
	// spans — the raw material of EXPLAIN ANALYZE. A nil Trace costs
	// nothing.
	Trace *obs.Trace
	// Ctx, when non-nil, is polled at cancellation checkpoints: before each
	// starting point, at each structural-join hop, and every few dozen
	// subject-node visits inside the NoK matching loop. On cancellation or
	// deadline expiry the evaluation stops and returns ctx.Err(). A nil Ctx
	// costs nothing.
	Ctx context.Context
}

func (opts *QueryOptions) trace() *obs.Trace {
	if opts == nil {
		return nil
	}
	return opts.Trace
}

func (opts *QueryOptions) ctx() context.Context {
	if opts == nil {
		return nil
	}
	return opts.Ctx
}

// ctxErr is the nil-safe checkpoint used between matching units.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Query parses and evaluates a path expression, returning the matches of
// its returning node in document order.
func (db *Snapshot) Query(expr string, opts *QueryOptions) ([]Match, *QueryStats, error) {
	begin := time.Now()
	sp := opts.trace().Start("parse")
	t, err := pattern.Parse(expr)
	sp.End()
	if err != nil {
		mQueryErrors.Inc()
		// Parse failures get a flight-recorder record too — a client sending
		// malformed queries is exactly the kind of thing /debug/queries
		// should surface.
		if telemetry.Default.Enabled() {
			telemetry.Default.Capture(&telemetry.Record{
				Expr:     expr,
				Start:    begin,
				Duration: time.Since(begin),
				Epoch:    db.epoch,
				Error:    err.Error(),
			})
		}
		return nil, nil, err
	}
	return db.QueryPattern(t, opts)
}

// QueryPattern evaluates a parsed pattern tree.
func (db *Snapshot) QueryPattern(t *pattern.Tree, opts *QueryOptions) ([]Match, *QueryStats, error) {
	mQueries.Inc()
	begin := time.Now()
	ms, stats, err := db.queryPattern(t, opts)
	dur := time.Since(begin)
	if err != nil {
		mQueryErrors.Inc()
	} else {
		mResults.Add(int64(len(ms)))
	}
	if telemetry.Default.Enabled() {
		rec := buildRecord(db, t.String(), stats, len(ms), begin, dur, opts.trace(), err)
		telemetry.Default.Capture(rec)
		telemetry.Default.ObserveQuery(rec)
		if stats != nil {
			stats.QueryID = rec.ID
		}
	} else {
		mQuerySeconds.Observe(dur.Seconds())
	}
	return ms, stats, err
}

// buildRecord flattens one evaluation into its telemetry record. stats may
// be nil (evaluation failed before stats existed); the record still carries
// the expression, timing, and error.
func buildRecord(db *Snapshot, expr string, stats *QueryStats, results int, begin time.Time, dur time.Duration, tr *obs.Trace, err error) *telemetry.Record {
	rec := &telemetry.Record{
		Expr:     expr,
		Start:    begin,
		Duration: dur,
		Results:  results,
		Epoch:    db.epoch,
	}
	if stats != nil {
		rec.Partitions = stats.Partitions
		rec.Strategies = strategyNames(stats.StrategyUsed)
		rec.Planned = stats.Planned
		rec.PlanEpoch = stats.PlanEpoch
		rec.EstRows = stats.EstRows
		rec.EstPages = stats.EstPages
		rec.PagesScanned = stats.PagesScanned
		rec.PagesSkipped = stats.PagesSkipped
		rec.StartingPoints = stats.StartingPoints
		rec.NodesVisited = stats.NodesVisited
		rec.Parallel = stats.Parallel
		for _, pt := range stats.PartitionTimings {
			rec.Parts = append(rec.Parts, telemetry.PartTiming{
				Partition: pt.Partition,
				Strategy:  pt.Strategy.String(),
				Micros:    pt.Duration.Microseconds(),
				Matches:   pt.Matches,
			})
		}
		if stats.plan != nil {
			rec.Plan = stats.plan
		}
	}
	if tr != nil {
		rec.Phases = tr.Phases()
	}
	if err != nil {
		rec.Error = err.Error()
	}
	return rec
}

// singleStrategy holds a shared one-element label slice per strategy, so
// capturing the overwhelmingly common single-partition query doesn't
// allocate. Records are read-only after capture, so sharing is safe.
var singleStrategy = map[Strategy][]string{
	StrategyAuto:       {StrategyAuto.String()},
	StrategyScan:       {StrategyScan.String()},
	StrategyTagIndex:   {StrategyTagIndex.String()},
	StrategyValueIndex: {StrategyValueIndex.String()},
	StrategyPathIndex:  {StrategyPathIndex.String()},
	StrategySkipped:    {StrategySkipped.String()},
}

func strategyNames(used []Strategy) []string {
	if len(used) == 1 {
		if s, ok := singleStrategy[used[0]]; ok {
			return s
		}
	}
	out := make([]string, len(used))
	for i, s := range used {
		out[i] = s.String()
	}
	return out
}

func (db *Snapshot) queryPattern(t *pattern.Tree, opts *QueryOptions) ([]Match, *QueryStats, error) {
	strat := StrategyAuto
	noSkip := false
	noPlan := false
	noParallel := false
	if opts != nil {
		strat = opts.Strategy
		noSkip = opts.DisablePageSkip
		noPlan = opts.DisablePlanner
		noParallel = opts.DisableParallel
	}
	tr := opts.trace()
	ctx := opts.ctx()
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}

	sp := tr.Start("partition")
	parts := pattern.Partition(t)
	sp.Set("partitions", len(parts))
	sp.End()

	// The anchor is needed both by the planner (the top partition's access
	// choice includes the path index over the anchored chain) and by phase 2.
	anchor, chainTests := topAnchor(parts[0], t)

	// Under StrategyAuto the cost-based planner replaces the §6.2
	// heuristic; a forced strategy or a disabled planner leaves plan nil.
	var plan *planner.Plan
	if strat == StrategyAuto && !noPlan {
		plan = db.planFor(t, parts, anchor, chainTests)
	}

	stats := &QueryStats{
		Partitions:   len(parts),
		StrategyUsed: make([]Strategy, len(parts)),
		Requested:    strat,
	}
	if plan != nil {
		stats.Planned = true
		stats.PlanEpoch = plan.Epoch
		stats.EstRows = plan.EstRows
		stats.EstPages = plan.EstTotalPages
		stats.plan = plan
		psp := tr.Start("plan")
		psp.Set("epoch", int(plan.Epoch))
		psp.Set("est-pages", int(plan.EstTotalPages))
		psp.Set("est-rows", int(plan.EstRows))
		psp.End()
	}

	// nc attributes page-level navigation work (examined vs skipped via the
	// (st,lo,hi) headers) to this query alone; the store- and process-global
	// counters keep aggregating independently.
	nc := &stree.NavCounters{}
	defer func() {
		stats.PagesScanned = nc.Examined
		stats.PagesSkipped = nc.Skipped
	}()

	// Phase 1: bottom-up ExtMatch. When the plan marks the query
	// parallel-eligible (independent partitions, enough estimated page
	// work), the partitions run on concurrent workers scheduled by their
	// dependency tree; otherwise the sequential path below walks the
	// plan's cost order (or reverse topological order without a plan).
	if plan != nil && plan.Parallel && !noParallel && len(parts) > 2 {
		psp := tr.Start("ext-match parallel")
		ext, extPts, err := db.parallelExtMatch(parts, plan, noSkip, psp, ctx, stats, nc)
		psp.End()
		if err != nil {
			return nil, nil, err
		}
		return db.topDown(t, parts, plan, strat, noSkip, anchor, chainTests, tr, ctx, stats, nc, ext, extPts)
	}
	order := make([]int, 0, len(parts)-1)
	if plan != nil && len(plan.Order) == len(parts)-1 {
		order = append(order, plan.Order...)
	} else {
		for i := len(parts) - 1; i >= 1; i-- {
			order = append(order, i)
		}
	}
	ext := make(map[*pattern.NoKTree][]Match)
	extPts := make(map[*pattern.NoKTree][]uint64)
	for _, i := range order {
		nt := parts[i]
		psp := tr.Start(fmt.Sprintf("ext-match partition=%d", i))
		psp.Set("root", nt.Root.Test)

		// Short-circuit: a linked child partition with no matches makes the
		// link predicate unsatisfiable, so this partition's ExtMatch is empty
		// without touching a page. (Sound for every link axis: an empty child
		// set satisfies neither containment nor following existence.)
		short := false
		for _, l := range nt.Links {
			if pts, ok := extPts[l.To]; ok && len(pts) == 0 {
				short = true
				break
			}
		}
		if short {
			ext[nt] = nil
			extPts[nt] = nil
			stats.StrategyUsed[i] = StrategySkipped
			psp.Set("shortcut", "empty child partition")
			psp.Set("matches", 0)
			psp.End()
			continue
		}

		ncBefore := *nc
		npmBefore, visBefore := stats.NPMCalls, stats.NodesVisited

		m := newMatcher(db, nt, nil, stats)
		m.noSkip = noSkip
		m.nc = nc
		m.ctx = ctx
		db.installLinkPreds(m, nt, extPts)

		partStrat := strat
		if plan != nil {
			partStrat = strategyForAccess(plan.Parts[i].Access)
		}
		ssp := psp.Start("locate-starts")
		startPoints, used, err := db.starts(nt, partStrat, nc)
		ssp.End()
		if err != nil {
			return nil, nil, err
		}
		ssp.Set("strategy", used.String())
		ssp.Set("starts", len(startPoints))
		if plan != nil {
			ssp.Set("est-starts", int(plan.Parts[i].EstStarts))
			ssp.Set("est-pages", int(plan.Parts[i].EstPages))
		}
		stats.StrategyUsed[i] = used
		stats.StartingPoints += len(startPoints)

		var matches []Match
		for _, s := range startPoints {
			if err := ctxErr(ctx); err != nil {
				return nil, nil, err
			}
			ok, err := m.matchAt(nt.Root, s)
			if err != nil {
				return nil, nil, err
			}
			if ok {
				matches = append(matches, s)
			}
		}
		ext[nt] = matches
		extPts[nt] = docPosList(matches)
		psp.Set("matches", len(matches))
		psp.Set("npm-calls", stats.NPMCalls-npmBefore)
		psp.Set("nodes-visited", stats.NodesVisited-visBefore)
		psp.Set("pages-scanned", nc.Examined-ncBefore.Examined)
		psp.Set("pages-skipped", nc.Skipped-ncBefore.Skipped)
		psp.End()
	}

	return db.topDown(t, parts, plan, strat, noSkip, anchor, chainTests, tr, ctx, stats, nc, ext, extPts)
}

// topDown is phase 2: walk the partition chain from the top partition to
// the one containing the returning node, narrowing starting points through
// structural joins. Shared by the sequential and parallel bottom-up paths.
func (db *Snapshot) topDown(
	t *pattern.Tree,
	parts []*pattern.NoKTree,
	plan *planner.Plan,
	strat Strategy,
	noSkip bool,
	anchor *pattern.Node,
	chainTests []string,
	tr *obs.Trace,
	ctx context.Context,
	stats *QueryStats,
	nc *stree.NavCounters,
	ext map[*pattern.NoKTree][]Match,
	extPts map[*pattern.NoKTree][]uint64,
) ([]Match, *QueryStats, error) {
	tsp := tr.Start("top-down")
	defer tsp.End()
	chain := pattern.PathToReturn(parts, t)
	if len(chain) == 0 {
		return nil, nil, fmt.Errorf("core: returning node not found in any partition")
	}
	tsp.Set("chain", len(chain))
	virtual := Match{Pos: stree.Pos{Chain: -1, Off: -1}}
	trueStarts := []Match{virtual}

	// Anchored evaluation of the top partition: when the pattern starts
	// with a pure unconstrained '/' chain (e.g. /authors/author[...]), the
	// chain's end — the anchor — can be located through the indexes like
	// any NoK root, with ancestors verified by Dewey-prefix lookups. This
	// is what makes '/'-rooted high-selectivity queries index-driven
	// rather than full navigations from the document root.
	topRoot := t.Root // effective pattern node matched at trueStarts
	if anchor != nil {
		topStrat := strat
		if plan != nil {
			topStrat = strategyForAccess(plan.Parts[0].Access)
		}
		asp := tsp.Start("locate-anchor")
		starts, used, err := db.anchoredStarts(parts[0], anchor, chainTests, topStrat, nc)
		asp.End()
		if err != nil {
			return nil, nil, err
		}
		asp.Set("anchor", anchor.Test)
		asp.Set("strategy", used.String())
		asp.Set("starts", len(starts))
		if plan != nil {
			asp.Set("est-starts", int(plan.Parts[0].EstStarts))
			asp.Set("est-pages", int(plan.Parts[0].EstPages))
		}
		stats.StrategyUsed[0] = used
		stats.StartingPoints += len(starts)
		trueStarts = starts
		topRoot = anchor
	} else {
		// Virtual-root navigation: the top partition is matched by walking
		// from the document root, which is scan-class work.
		stats.StrategyUsed[0] = StrategyScan
	}

	for k := 0; k < len(chain); k++ {
		nt := chain[k]
		last := k == len(chain)-1
		hsp := tsp.Start(fmt.Sprintf("match partition=%d", nt.Index()))
		hsp.Set("starts", len(trueStarts))
		ncBefore := *nc

		// Shortcut: when the returning node is this partition's root and
		// this is the last hop, the filtered ExtMatch set *is* the answer.
		if last && nt.Root == t.Return && nt.Parent != nil {
			hsp.Set("matches", len(trueStarts))
			hsp.Set("shortcut", "ext-match reuse")
			hsp.End()
			return trueStarts, stats, nil
		}

		var outputs []*pattern.Node
		var downLink *pattern.Link
		if !last {
			for _, l := range nt.Links {
				if l.To == chain[k+1] {
					downLink = l
					break
				}
			}
			if downLink == nil {
				return nil, nil, fmt.Errorf("core: no link from partition %d to %d", nt.Index(), chain[k+1].Index())
			}
			outputs = append(outputs, downLink.From)
		}
		if last {
			outputs = append(outputs, t.Return)
		}

		m := newMatcher(db, nt, outputs, stats)
		m.noSkip = noSkip
		m.nc = nc
		m.ctx = ctx
		db.installLinkPreds(m, nt, extPts)
		root := nt.Root
		if k == 0 {
			root = topRoot
		}
		for _, s := range trueStarts {
			if err := ctxErr(ctx); err != nil {
				return nil, nil, err
			}
			ok, err := m.matchAt(root, s)
			if err != nil {
				return nil, nil, err
			}
			_ = ok
		}
		hsp.Set("pages-scanned", nc.Examined-ncBefore.Examined)
		hsp.Set("pages-skipped", nc.Skipped-ncBefore.Skipped)
		if last {
			res := m.results(t.Return)
			hsp.Set("matches", len(res))
			hsp.End()
			return res, stats, nil
		}

		// Structural join: narrow the child partition's ExtMatch to nodes
		// inside (or after, for the following axis) a matched link source.
		fromMatches := m.results(downLink.From)
		childExt := ext[chain[k+1]]
		childPts := extPts[chain[k+1]]
		hsp.Set("matches", len(fromMatches))
		hsp.End()

		jsp := tsp.Start(fmt.Sprintf("join partition=%d→%d", nt.Index(), chain[k+1].Index()))
		jsp.Set("axis", axisName(downLink.Axis))

		if downLink.From.IsVirtualRoot() {
			// The virtual root contains every node and nothing follows the
			// document; no interval arithmetic needed (or possible — the
			// virtual root has no physical position).
			if len(fromMatches) > 0 && downLink.Axis != pattern.Following {
				trueStarts = childExt
			} else {
				trueStarts = nil
			}
			jsp.Set("kept", len(trueStarts))
			jsp.Set("shortcut", "virtual root")
			jsp.End()
			continue
		}

		ivs, err := db.intervalsOf(nt, downLink.From, fromMatches, nc)
		if err != nil {
			return nil, nil, err
		}
		stats.JoinInputs += len(ivs) + len(childPts)
		jsp.Set("inputs", len(ivs)+len(childPts))

		var keep []int
		if downLink.Axis == pattern.Following {
			keep = join.AfterAny(childPts, ivs)
		} else {
			keep = join.ContainedIn(childPts, ivs)
		}
		trueStarts = make([]Match, len(keep))
		for i, idx := range keep {
			trueStarts[i] = childExt[idx]
		}
		jsp.Set("kept", len(keep))
		jsp.End()
	}
	return nil, stats, fmt.Errorf("core: unreachable evaluation state")
}

// axisName renders a link axis for trace annotations.
func axisName(a pattern.Axis) string {
	switch a {
	case pattern.Child:
		return "child"
	case pattern.Descendant:
		return "descendant"
	case pattern.FollowingSibling:
		return "following-sibling"
	case pattern.Following:
		return "following"
	default:
		return fmt.Sprintf("axis(%d)", int(a))
	}
}

// installLinkPreds attaches child-partition existence predicates to link
// sources — the bottom-up structural join folded into NoK matching.
func (db *Snapshot) installLinkPreds(m *matcher, nt *pattern.NoKTree, extPts map[*pattern.NoKTree][]uint64) {
	for _, l := range nt.Links {
		link := l
		pts := extPts[link.To]
		prev := m.linkPred[link.From]
		m.linkPred[link.From] = func(u Match) (bool, error) {
			if prev != nil {
				ok, err := prev(u)
				if err != nil || !ok {
					return false, err
				}
			}
			iv, err := db.nodeInterval(nt, link.From, u, m.nc)
			if err != nil {
				return false, err
			}
			if link.Axis == pattern.Following {
				return join.ExistsAfter(pts, iv), nil
			}
			return join.ExistsWithin(pts, iv), nil
		}
	}
}

// nodeInterval returns the interval of a matched node; the virtual root's
// interval spans the whole document.
func (db *Snapshot) nodeInterval(nt *pattern.NoKTree, n *pattern.Node, u Match, nc *stree.NavCounters) (stree.Interval, error) {
	if n.IsVirtualRoot() {
		return stree.Interval{Start: 0, End: math.MaxUint64}, nil
	}
	return db.Tree.IntervalCounted(u.Pos, nc)
}

// intervalsOf computes intervals for a list of matches of node n.
func (db *Snapshot) intervalsOf(nt *pattern.NoKTree, n *pattern.Node, ms []Match, nc *stree.NavCounters) ([]stree.Interval, error) {
	out := make([]stree.Interval, len(ms))
	for i, u := range ms {
		iv, err := db.nodeInterval(nt, n, u, nc)
		if err != nil {
			return nil, err
		}
		out[i] = iv
	}
	return out, nil
}

func docPosList(ms []Match) []uint64 {
	out := make([]uint64, len(ms))
	for i, m := range ms {
		out[i] = m.DocPos()
	}
	return out
}
