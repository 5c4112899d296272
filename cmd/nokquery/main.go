// Command nokquery evaluates a path expression against a NoK store (or a
// sharded collection, detected automatically), or — with -xml — directly
// against an XML file in one streaming pass without building a store.
//
// Usage:
//
//	nokquery -db DIR [-strategy auto|scan|tag|value|path] [-no-planner] [-stats] [-analyze]
//	         [-timeout D] [-partial] QUERY
//	nokquery -db DIR -plan QUERY
//	nokquery -xml FILE QUERY
//
// -analyze runs the query with tracing enabled and prints the executed plan
// (EXPLAIN ANALYZE): every phase with its duration, starting-point strategy,
// and pages scanned vs skipped. -plan prints the cost-based planner's plan
// (estimated access paths, cardinalities and pages) without executing the
// query — EXPLAIN to -analyze's EXPLAIN ANALYZE.
//
// Exit status: 0 on success, 1 on evaluation errors (malformed query,
// missing store, unreadable XML), 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"nok"
	"nok/internal/buildinfo"
	"nok/internal/shard"
)

// queryStore is the store surface nokquery needs; both *nok.Store and the
// sharded *shard.Store satisfy it.
type queryStore interface {
	Plan(expr string) (string, error)
	QueryAnalyze(expr string, opts *nok.QueryOptions) ([]nok.Result, *nok.QueryStats, string, error)
	QueryWithOptionsContext(ctx context.Context, expr string, opts *nok.QueryOptions) ([]nok.Result, *nok.QueryStats, error)
	Close() error
}

// openStore opens dir as a sharded collection when a SHARDS manifest is
// present, as a single store otherwise.
func openStore(dir string) (queryStore, error) {
	if shard.IsSharded(dir) {
		return shard.Open(dir, nil)
	}
	return nok.Open(dir, nil)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, evaluates, writes
// human-readable output to stdout and errors to stderr, and returns the
// process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "nokquery: "+format+"\n", a...)
		return 1
	}

	fs := flag.NewFlagSet("nokquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store directory")
	xml := fs.String("xml", "", "stream-evaluate against an XML file instead of a store")
	strategy := fs.String("strategy", "auto", "starting-point strategy: auto, scan, tag, value, path")
	showStats := fs.Bool("stats", false, "print evaluation statistics")
	analyze := fs.Bool("analyze", false, "print the executed plan with per-phase timings (EXPLAIN ANALYZE)")
	planOnly := fs.Bool("plan", false, "print the cost-based plan without executing the query")
	noPlanner := fs.Bool("no-planner", false, "keep auto strategy on the paper's §6.2 heuristic instead of the cost-based planner")
	timeout := fs.Duration("timeout", 0, "per-query deadline (0 = none); exceeded deadlines abort the matching loops mid-scan")
	partial := fs.Bool("partial", false, "accept degraded partial results when a remote shard is unreachable")
	version := fs.Bool("version", false, "print the build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.String())
		return 0
	}
	if (*db == "") == (*xml == "") || fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	expr := fs.Arg(0)

	if *xml != "" {
		if *analyze {
			return fail("-analyze requires a store (-db); streaming mode has no stored pages to trace")
		}
		if *planOnly {
			return fail("-plan requires a store (-db); streaming mode has no statistics to plan against")
		}
		f, err := os.Open(*xml)
		if err != nil {
			return fail("%v", err)
		}
		defer f.Close()
		t0 := time.Now()
		n := 0
		err = nok.Stream(f, expr, func(r nok.Result) bool {
			n++
			if r.HasValue {
				fmt.Fprintf(stdout, "%-16s %q\n", r.ID, r.Value)
			} else {
				fmt.Fprintf(stdout, "%-16s\n", r.ID)
			}
			return true
		})
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprintf(stdout, "-- %d result(s) in %v (streaming, single pass)\n", n, time.Since(t0).Round(time.Microsecond))
		return 0
	}

	var strat nok.Strategy
	switch *strategy {
	case "auto":
		strat = nok.StrategyAuto
	case "scan":
		strat = nok.StrategyScan
	case "tag":
		strat = nok.StrategyTagIndex
	case "value":
		strat = nok.StrategyValueIndex
	case "path":
		strat = nok.StrategyPathIndex
	default:
		return fail("unknown strategy %q", *strategy)
	}

	st, err := openStore(*db)
	if err != nil {
		return fail("%v", err)
	}
	defer st.Close()

	if *planOnly {
		text, err := st.Plan(expr)
		if err != nil {
			return fail("%v", err)
		}
		fmt.Fprint(stdout, text)
		return 0
	}

	opts := &nok.QueryOptions{Strategy: strat, DisablePlanner: *noPlanner, AllowPartial: *partial}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	t0 := time.Now()
	var (
		rs    []nok.Result
		stats *nok.QueryStats
		plan  string
	)
	if *analyze {
		rs, stats, plan, err = st.QueryAnalyze(expr, opts)
	} else {
		rs, stats, err = st.QueryWithOptionsContext(ctx, expr, opts)
	}
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return fail("query exceeded the -timeout deadline (%v): %v", *timeout, err)
		case errors.Is(err, nok.ErrShardUnavailable):
			return fail("%v (re-run with -partial to accept degraded results)", err)
		}
		return fail("%v", err)
	}
	elapsed := time.Since(t0)
	for _, r := range rs {
		if r.HasValue {
			fmt.Fprintf(stdout, "%-16s %-12s %q\n", r.ID, r.Tag, r.Value)
		} else {
			fmt.Fprintf(stdout, "%-16s %-12s\n", r.ID, r.Tag)
		}
	}
	fmt.Fprintf(stdout, "-- %d result(s) in %v\n", len(rs), elapsed.Round(time.Microsecond))
	if stats.Degraded {
		fmt.Fprintf(stdout, "-- DEGRADED: shard(s) %v unavailable; results are a correct subset of the full answer\n", stats.MissingShards)
	}
	if *showStats {
		fmt.Fprintf(stdout, "-- partitions=%d starts=%d npm=%d visited=%d joins=%d strategies=%v pages=%d/%d scanned/skipped\n",
			stats.Partitions, stats.StartingPoints, stats.NPMCalls,
			stats.NodesVisited, stats.JoinInputs, stats.StrategyUsed,
			stats.PagesScanned, stats.PagesSkipped)
		fmt.Fprintf(stdout, "-- %s\n", strategyLine(stats))
		printShards(stdout, stats)
	}
	if *analyze {
		fmt.Fprint(stdout, plan)
		fmt.Fprintf(stdout, "-- %s\n", strategyLine(stats))
		printShards(stdout, stats)
	}
	return 0
}

// printShards reports per-shard fan-out when the query ran against a
// sharded collection: which shards were pruned by statistics (and why),
// and what each live shard contributed.
func printShards(stdout io.Writer, stats *nok.QueryStats) {
	if len(stats.Shards) == 0 {
		return
	}
	for _, sh := range stats.Shards {
		if sh.Unavailable {
			fmt.Fprintf(stdout, "-- shard %d: UNAVAILABLE\n", sh.Shard)
		} else if sh.Skipped {
			fmt.Fprintf(stdout, "-- shard %d: pruned (%s)\n", sh.Shard, sh.SkipReason)
		} else {
			fmt.Fprintf(stdout, "-- shard %d: %d result(s) in %v\n",
				sh.Shard, sh.Results, sh.Duration.Round(time.Microsecond))
		}
	}
}

// strategyLine reports the requested strategy against what actually ran,
// making silent degradations (a forced strategy with no usable constraint,
// a planner pick that fell back) visible, and says whether the cost-based
// planner chose the strategies.
func strategyLine(stats *nok.QueryStats) string {
	chooser := "heuristic §6.2"
	if stats.Planned {
		chooser = fmt.Sprintf("cost-based planner (stats epoch %d)", stats.PlanEpoch)
	}
	degraded := ""
	if stats.Requested != nok.StrategyAuto {
		for _, used := range stats.StrategyUsed {
			if used != stats.Requested && used != nok.StrategySkipped {
				degraded = fmt.Sprintf(" (degraded to %v)", used)
				break
			}
		}
	}
	return fmt.Sprintf("requested=%v%s effective=%v chosen-by=%s",
		stats.Requested, degraded, stats.StrategyUsed, chooser)
}
