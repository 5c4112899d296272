package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := benchMetric{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := benchMetric{Name: "query_qps", Better: "higher", Bound: 0.10}
	// tight is a value with a 2% in-run spread, wide one with 30%, once one
	// measured a single time.
	tight := func(v float64) stat { return stat{Value: v, Min: 0.99 * v, Max: 1.01 * v, N: 5} }
	wide := func(v float64) stat { return stat{Value: v, Min: 0.85 * v, Max: 1.15 * v, N: 5} }
	once := func(v float64) stat { return stat{Value: v, Min: v, Max: v, N: 1} }
	for _, tc := range []struct {
		name string
		a, b stat
		m    benchMetric
		want string
	}{
		{"lower is better, 20% lower", tight(100), tight(80), lower, "improved"},
		{"lower is better, 5% higher", tight(100), tight(105), lower, "unchanged"},
		{"lower is better, 20% higher", tight(100), tight(120), lower, "regressed"},
		{"higher is better, 20% higher", tight(100), tight(120), higher, "improved"},
		{"higher is better, 5% lower", tight(100), tight(95), higher, "unchanged"},
		{"higher is better, 20% lower", tight(100), tight(80), higher, "regressed"},
		{"inside the bound, A's spread is wider than it", wide(100), tight(105), lower, "unresolved"},
		{"better by more than the bound, B's spread is wider than it", tight(100), wide(80), lower, "unresolved"},
		{"a regression is one whatever the spread", wide(100), wide(120), lower, "regressed"},
		{"measured once: the ratio decides", once(100), once(105), lower, "unchanged"},
		{"measured once, regressed", once(100), once(120), lower, "regressed"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.m); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	if _, ok := relSpread(once(3)); ok {
		t.Error("a value measured once has a known spread")
	}
}

// TestCompareMissing checks that compare fails when B dropped a workload or
// a metric, when a traced report meets an untraced one, and passes on two
// equal reports.
func TestCompareMissing(t *testing.T) {
	spec := loadedSpec(t)
	full := func(traced bool) *report {
		rep := &report{Traced: traced, Workloads: map[string]*result{}}
		for _, w := range spec.workloadNames() {
			res := &result{Workload: w, Metrics: map[string]stat{}}
			for _, m := range spec.metrics(traced) {
				res.Metrics[m.Name] = stat{Value: 1, Min: 1, Max: 1, N: 5}
			}
			rep.Workloads[w] = res
		}
		return rep
	}
	dir := t.TempDir()
	write := func(name string, rep *report) string {
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	noWorkload, noMetric := full(false), full(false)
	delete(noWorkload.Workloads, "scatter")
	delete(noMetric.Workloads["nav"].Metrics, "query_qps")
	whole := write("whole.json", full(false))
	for _, tc := range []struct {
		name string
		b    string
		want int
	}{
		{"equal reports", whole, 0},
		{"B dropped a workload", write("no-workload.json", noWorkload), 1},
		{"B dropped a metric", write("no-metric.json", noMetric), 1},
		{"B is a traced report", write("traced.json", full(true)), 2},
		{"B is empty", write("empty.json", &report{}), 1},
	} {
		if got := compareMain([]string{"-bench", "../BENCHMARK.json", whole, tc.b}, io.Discard); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}
