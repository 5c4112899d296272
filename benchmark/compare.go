package main

// compare.go — `benchmark compare A.json B.json`: one row per workload and
// metric with both values, their spread inside the run, the ratio with its
// base and, for end-to-end metrics, a verdict against the bounds of
// BENCHMARK.json; layer metrics (two traced reports) are sorted by how far
// they moved, so a reviewer can name the layer behind an end-to-end change.
// Anything one report has and the other lacks is a failure, not a skipped
// row.

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// relSpread is the width of a value's in-run spread as a share of it. A
// value measured once in its run (setup_s, disk_bytes_per_xml_byte) has no
// spread to speak of: ok is false.
func relSpread(s stat) (share float64, ok bool) {
	if s.N < 2 || s.Value == 0 {
		return 0, false
	}
	return (s.Max - s.Min) / math.Abs(s.Value), true
}

func spreadText(s stat) string {
	if share, ok := relSpread(s); ok {
		return fmt.Sprintf("%.1f%%", 100*share)
	}
	return "n/a"
}

// verdict judges B against A. worse is how much worse B is as a share of
// A, signed so that positive is worse whichever direction is better. A
// change inside the bound is "unresolved" rather than "unchanged" when a
// run's own spread is wider than the bound; an unknown spread resolves
// nothing either way.
func verdict(a, b stat, m benchMetric) (worse float64, word string) {
	worse = b.Value/a.Value - 1
	if m.Better == "higher" {
		worse = -worse
	}
	sa, _ := relSpread(a)
	sb, _ := relSpread(b)
	switch {
	case worse > m.Bound:
		word = "regressed"
	case sa > m.Bound || sb > m.Bound:
		word = "unresolved"
	case worse < -m.Bound:
		word = "improved"
	default:
		word = "unchanged"
	}
	return worse, word
}

// row is one workload × metric present in both reports.
type row struct {
	workload string
	m        benchMetric
	a, b     stat
}

// change is the relative move of a layer metric, for sorting.
func (r row) change() float64 {
	if r.a.Value == 0 {
		if r.b.Value == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(r.b.Value/r.a.Value - 1)
}

// pair lines the two reports up against the spec. Every workload either
// report holds must be in both, with every metric the spec lists for that
// kind of run; what is not goes to missing.
func pair(spec *benchSpec, a, b *report) (rows []row, missing []string) {
	for _, name := range spec.workloadNames() {
		ra, rb := a.Workloads[name], b.Workloads[name]
		if ra == nil && rb == nil {
			continue
		}
		if ra == nil || rb == nil {
			missing = append(missing, name)
			continue
		}
		for _, m := range spec.metrics(a.Traced) {
			sa, oka := ra.Metrics[m.Name]
			sb, okb := rb.Metrics[m.Name]
			if !oka || !okb {
				missing = append(missing, name+" "+m.Name)
				continue
			}
			rows = append(rows, row{name, m, sa, sb})
		}
	}
	return rows, missing
}

// compareMain returns the exit code: 1 if an end-to-end metric regressed or
// the reports do not cover the same workloads and metrics.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "the benchmark's BENCHMARK.json, for bounds and directions")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-bench BENCHMARK.json] A.json B.json")
		return 2
	}
	spec, err := loadSpec(*benchPath)
	var a, b report
	for i, rep := range []*report{&a, &b} {
		if err == nil {
			err = readJSON(fs.Arg(i), rep)
		}
	}
	if err == nil && a.Traced != b.Traced {
		err = fmt.Errorf("%s is a traced report and %s is not, or the reverse", fs.Arg(0), fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}

	rows, missing := pair(spec, &a, &b)
	failed := len(rows) == 0 || len(missing) > 0
	if a.Traced {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].change() > rows[j].change() })
		fmt.Fprintf(w, "layer metrics, largest relative change first\n%-8s %-32s %14s %14s %9s\n", "workload", "metric", "A", "B", "change")
		for _, r := range rows {
			fmt.Fprintf(w, "%-8s %-32s %14.4f %14.4f %+8.1f%%  %s\n", r.workload, r.m.Name, r.a.Value, r.b.Value,
				100*(r.b.Value/r.a.Value-1), r.m.Unit)
		}
	} else {
		fmt.Fprintf(w, "%-8s %-24s %14s %9s %14s %9s %8s  %s\n", "workload", "metric", "A", "spread", "B", "spread", "B/A", "verdict")
		for _, r := range rows {
			_, word := verdict(r.a, r.b, r.m)
			failed = failed || word == "regressed"
			fmt.Fprintf(w, "%-8s %-24s %14.4f %9s %14.4f %9s %8.3f  %s (bound %.0f%%, %s is better)\n",
				r.workload, r.m.Name, r.a.Value, spreadText(r.a), r.b.Value, spreadText(r.b), r.b.Value/r.a.Value, word, 100*r.m.Bound, r.m.Better)
		}
	}
	for _, what := range missing {
		fmt.Fprintf(w, "missing from one report: %s\n", what)
	}
	if len(rows) == 0 {
		fmt.Fprintln(w, "the reports have no workload in common")
	}
	if failed {
		return 1
	}
	return 0
}
