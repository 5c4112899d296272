// Command nokbench regenerates the paper's evaluation artifacts (see
// DESIGN.md §4 for the experiment index):
//
//	nokbench -table 1          Table 1: dataset and index statistics
//	nokbench -table 2          Table 2: the query categories
//	nokbench -table 3          Table 3: running times of all four systems
//	nokbench -table summary    Table 3 condensed to speedup ratios
//	nokbench -table ratios     §4.2 storage-size and header-memory claims
//	nokbench -table io         Proposition 1: single-pass page I/O
//	nokbench -table heuristic  §6.2 starting-point strategy comparison
//	nokbench -table update     §4.2 update locality
//	nokbench -table stream     streaming evaluation vs stored evaluation
//	nokbench -table skip       (st,lo,hi) page-skip ablation
//	nokbench -table planner    cost-based planner vs §6.2 heuristic pages
//	nokbench -table shard      scatter-gather speedup on sharded collections
//	nokbench -table remote     loopback remote scatter vs in-process overhead
//	nokbench -table telemetry  query telemetry capture overhead
//	nokbench -table mvcc       read latency under a concurrent writer
//	nokbench -table ingest     group-commit ingest vs per-document Insert
//	nokbench -table all        everything above
//
// Flags: -scale, -seed, -runs, -workdir, -datasets (comma-separated).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"nok/internal/bench"
	"nok/internal/buildinfo"
	"nok/internal/shardbench"
	"nok/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nokbench: ")
	table := flag.String("table", "all", "which artifact to produce")
	scale := flag.Int("scale", 1, "dataset size multiplier")
	seed := flag.Int64("seed", 0, "generator seed (0 = default)")
	runs := flag.Int("runs", 3, "timed repetitions per cell (median reported)")
	workdir := flag.String("workdir", "bench-work", "cache directory for datasets and stores")
	datasets := flag.String("datasets", "", "comma-separated dataset filter")
	inserts := flag.Int("inserts", 20, "insertions for the update experiment")
	version := flag.Bool("version", false, "print the build identity and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String())
		return
	}

	cfg := bench.Config{
		WorkDir: *workdir,
		Scale:   *scale,
		Seed:    *seed,
		Runs:    *runs,
	}
	if *datasets != "" {
		cfg.Datasets = strings.Split(*datasets, ",")
	}

	run := func(name string) {
		out := os.Stdout
		switch name {
		case "1":
			fmt.Fprintln(out, "== Table 1: data set statistics ==")
			rows, err := bench.Table1(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteTable1(out, rows)
		case "2":
			fmt.Fprintln(out, "== Table 2: query categories ==")
			fmt.Fprintf(out, "%-5s %-9s %-12s %-6s %-6s %s\n",
				"query", "category", "selectivity", "shape", "value", "example")
			for _, c := range workload.Categories() {
				val := "no"
				if c.Value {
					val = "yes"
				}
				fmt.Fprintf(out, "%-5s %-9s %-12s %-6s %-6s %s\n",
					c.ID, c.Code, c.Selectivity, c.Topology, val, c.Example)
			}
		case "3":
			fmt.Fprintln(out, "== Table 3: running time (s) for DI, Nav(X-Hive*), TwigStack, NoK ==")
			rows, err := bench.Table3(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteTable3(out, rows)
		case "summary":
			rows, err := bench.Table3(cfg)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Fprintln(out, "== Table 3 summary: competitor time / NoK time ==")
			bench.WriteSummary(out, bench.Summarize(rows))
		case "ratios":
			fmt.Fprintln(out, "== Storage ratios (§4.2) ==")
			rows, err := bench.Ratios(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteRatios(out, rows)
		case "io":
			fmt.Fprintln(out, "== Proposition 1: single-pass page I/O ==")
			rows, err := bench.IO(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteIO(out, rows)
		case "heuristic":
			fmt.Fprintln(out, "== Starting-point strategies (§6.2) ==")
			rows, err := bench.Heuristic(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteHeuristic(out, rows)
		case "update":
			fmt.Fprintln(out, "== Update locality (§4.2) ==")
			rows, err := bench.Update(cfg, *inserts)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteUpdate(out, rows)
		case "stream":
			fmt.Fprintln(out, "== Streaming evaluation ==")
			rows, err := bench.Streaming(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteStreaming(out, rows)
		case "skip":
			fmt.Fprintln(out, "== (st,lo,hi) page-skip ablation ==")
			rows, err := bench.HeaderSkip(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteHeaderSkip(out, rows)
		case "planner":
			fmt.Fprintln(out, "== Cost-based planner vs §6.2 heuristic ==")
			rows, err := bench.Planner(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WritePlanner(out, rows)
		case "shard":
			fmt.Fprintln(out, "== Sharded scatter-gather speedup ==")
			rows, err := shardbench.Shard(cfg)
			if err != nil {
				log.Fatal(err)
			}
			shardbench.WriteShard(out, rows)
			if sp := shardbench.ShardSpeedupAt(rows, 4); sp < shardbench.ShardSpeedupMin {
				log.Fatalf("4-shard speedup %.2fx is below the %.1fx budget", sp, shardbench.ShardSpeedupMin)
			}
		case "remote":
			fmt.Fprintln(out, "== Remote 4-shard loopback scatter vs in-process ==")
			res, err := shardbench.Remote(cfg)
			if err != nil {
				log.Fatal(err)
			}
			shardbench.WriteRemote(out, res)
			if res.Ratio > shardbench.RemoteOverheadMax {
				log.Fatalf("remote scatter is %.2fx the in-process pass, over the %.1fx budget",
					res.Ratio, shardbench.RemoteOverheadMax)
			}
		case "telemetry":
			fmt.Fprintln(out, "== Telemetry capture overhead (warm cache) ==")
			res, err := bench.Telemetry(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteTelemetry(out, res)
			if res.AggOverheadPct > bench.TelemetryBudgetPct {
				log.Fatalf("telemetry overhead %.2f%% exceeds the %.0f%% budget",
					res.AggOverheadPct, bench.TelemetryBudgetPct)
			}
		case "mvcc":
			fmt.Fprintln(out, "== MVCC read latency under a concurrent writer ==")
			res, err := bench.MVCCContention(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteMVCC(out, res)
			if res.Ratio > bench.MVCCBudgetRatio {
				log.Fatalf("contended read p50 is %.2fx the idle p50, over the %.1fx budget",
					res.Ratio, bench.MVCCBudgetRatio)
			}
		case "ingest":
			fmt.Fprintln(out, "== Group-commit ingest vs per-document Insert ==")
			res, err := bench.Ingest(cfg)
			if err != nil {
				log.Fatal(err)
			}
			bench.WriteIngest(out, res)
			if res.Speedup < bench.IngestSpeedupMin {
				log.Fatalf("group commit is only %.1fx per-Insert throughput, below the %.0fx budget",
					res.Speedup, bench.IngestSpeedupMin)
			}
			if !res.SynopsisOK() {
				log.Fatalf("synopsis audit failed: synopsis epoch %d at store epoch %d, %d of %d raced queries unplanned",
					res.SynopsisEpoch, res.FinalEpoch, res.Unplanned, res.Queries)
			}
		default:
			log.Fatalf("unknown table %q", name)
		}
		fmt.Fprintln(out)
	}

	if *table == "all" {
		for _, t := range []string{"1", "2", "3", "summary", "ratios", "io", "heuristic", "update", "stream", "skip", "planner", "shard", "remote", "telemetry", "mvcc", "ingest"} {
			run(t)
		}
		return
	}
	run(*table)
}
