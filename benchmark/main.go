// Command benchmark is the repo's performance record: four HTTP-to-disk
// workloads over in-process loopback servers, eight end-to-end metrics
// checked against a DOM oracle, and a per-layer cost model traced from
// outside the program under test. See README.md.
//
//	benchmark --workload nav --seed 1 --seconds 10 --trace 0
//	benchmark --workload all -out run.json
//	benchmark compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// report is the file -out writes and compare reads.
type report struct {
	Schema    int                `json:"schema"`
	Seed      int64              `json:"seed"`
	Scale     int                `json:"scale"`
	Seconds   float64            `json:"seconds"`
	Clients   int                `json:"clients"`
	Traced    bool               `json:"traced"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

// runMain parses flags, runs the selected workloads and prints the result.
// It returns the process exit code.
func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.Workload, "workload", "all", "nav, point, ingest, scatter or all")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed for datagen, query order and ingest documents")
	fs.Float64Var(&cfg.Seconds, "seconds", 10, "length of each timed read phase")
	fs.IntVar(&cfg.Scale, "scale", 4, "datagen scale of the big bases (4: ~198k dblp nodes)")
	fs.StringVar(&cfg.Workdir, "workdir", "", "directory for the run's temporary stores (default: system temp)")
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark's BENCHMARK.json: the workloads and metrics to report")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", "", "also write the full report (slice spreads, sizes) to this file")
	maxSeconds := fs.Float64("max-seconds", 170, "hard-exit non-zero after this long")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	names := spec.workloadNames()
	if cfg.Workload != "all" {
		if !slices.Contains(names, cfg.Workload) {
			fmt.Fprintf(os.Stderr, "benchmark: workload %q is not in %s\n", cfg.Workload, *benchPath)
			return 2
		}
		names = []string{cfg.Workload}
	}
	if cfg.Seconds <= 0 || cfg.Scale < 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds and -scale must be positive")
		return 2
	}
	cfg.Clients = runtime.NumCPU()

	// The watchdog is the last line of defence against a hang: it cannot
	// run deferred clean-up, so it removes the work directory itself. The
	// process starts no other process, so exiting ends everything.
	watchdog := time.AfterFunc(time.Duration(*maxSeconds*float64(len(names))*float64(time.Second)), func() {
		fmt.Fprintf(os.Stderr, "benchmark: still running after %v s per workload, giving up\n", *maxSeconds)
		removeRunDirs(cfg.Workdir)
		os.Exit(3)
	})
	defer watchdog.Stop()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	baseline := runtime.NumGoroutine()

	rep := &report{Schema: 1, Seed: cfg.Seed, Scale: cfg.Scale, Seconds: cfg.Seconds, Clients: cfg.Clients,
		Traced: *trace != 0, Workloads: map[string]*result{}}
	var runErr error
	for _, name := range names {
		one := cfg
		one.Workload = name
		var res *result
		if rep.Traced {
			res, runErr = runTraced(ctx, one)
		} else {
			res, runErr = runWorkload(ctx, one)
		}
		if runErr != nil {
			runErr = fmt.Errorf("%s: %w", name, runErr)
			break
		}
		rep.Workloads[name] = res
	}
	if runErr == nil {
		runErr = goroutinesSettled(baseline)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", runErr)
		return 1
	}
	if *out != "" {
		buf, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return printReport(stdout, spec, rep, names)
}

// goroutinesSettled fails if the run left goroutines behind. Connection
// goroutines of a closed transport exit asynchronously, so it waits a
// moment for the count to come back.
func goroutinesSettled(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			return fmt.Errorf("%d goroutines at exit, %d at start:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}

// lastLine is the contract's result line: exactly these keys.
type lastLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]lastValue `json:"metrics"`
}

type lastValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// reportsExactly fails unless res holds the listed metrics and no other.
func reportsExactly(res *result, specs []benchMetric) error {
	extra := maps.Clone(res.Metrics)
	var missing []string
	for _, m := range specs {
		if _, ok := extra[m.Name]; !ok {
			missing = append(missing, m.Name)
		}
		delete(extra, m.Name)
	}
	if len(missing)+len(extra) > 0 {
		return fmt.Errorf("not reported: %v; reported but not in BENCHMARK.json: %v", missing, slices.Sorted(maps.Keys(extra)))
	}
	return nil
}

// printReport prints every metric by name and unit, then the one-line JSON
// result. With several workloads the line's metric names are prefixed with
// the workload.
func printReport(w io.Writer, spec *benchSpec, rep *report, names []string) int {
	line := lastLine{Correct: true, Metrics: map[string]lastValue{}}
	specs := spec.metrics(rep.Traced)
	for _, name := range names {
		res := rep.Workloads[name]
		fmt.Fprintf(w, "workload %s  seed %d  scale %d  attempted %d  failed %d\n", name, rep.Seed, rep.Scale, res.Attempted, res.Failed)
		if res.FirstError != "" {
			fmt.Fprintf(w, "  first failure: %s\n", res.FirstError)
		}
		if err := reportsExactly(res, specs); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 1
		}
		for _, m := range specs {
			s := res.Metrics[m.Name]
			fmt.Fprintf(w, "  %-32s %14.4f %-6s [%.4g .. %.4g] n=%d\n", m.Name, s.Value, m.Unit, s.Min, s.Max, s.N)
			key := m.Name
			if len(names) > 1 {
				key = name + "." + m.Name
			}
			line.Metrics[key] = lastValue{s.Value, m.Unit}
		}
		if share, ok := res.Info["self_time_share"].(map[string]float64); ok {
			fmt.Fprintln(w, "  self time by span, share of client-observed latency:")
			for _, span := range slices.Sorted(maps.Keys(share)) {
				fmt.Fprintf(w, "    %-32s %6.1f%%\n", span, 100*share[span])
			}
		}
		line.Correct = line.Correct && res.Correct
		line.Attempted += res.Attempted
		line.Failed += res.Failed
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", buf)
	if !line.Correct {
		return 1
	}
	return 0
}
