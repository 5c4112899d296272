package main

import (
	"context"
	"os"
	"regexp"
	"testing"
)

// smokeConfig is the smallest run datagen allows: scale-1 documents, one
// commit per base and one-second read phases (long enough that every slice
// sees a request even under the race detector).
func smokeConfig(t *testing.T, workload string, seed int64) config {
	return config{Workload: workload, Seed: seed, Seconds: 1, Scale: 1, Clients: 2, Workdir: t.TempDir()}
}

// loadedSpec reads the BENCHMARK.json the benchmark is published with.
func loadedSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONNames checks that every name in BENCHMARK.json is made
// of letters, digits, '_', '.' and '-' and is used once.
func TestBenchmarkJSONNames(t *testing.T) {
	spec := loadedSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	names := spec.workloadNames()
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("%q is badly named or used twice", n)
		}
		seen[n] = true
	}
}

// TestSmokeWorkloads runs all four workloads untraced and checks that each
// reports every end-to-end metric, nothing else, and no failed operation.
func TestSmokeWorkloads(t *testing.T) {
	spec := loadedSpec(t)
	for _, w := range spec.workloadNames() {
		res, err := runWorkload(context.Background(), smokeConfig(t, w, 1))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d: %s", w, res.Correct, res.Attempted, res.Failed, res.FirstError)
		}
		if err := reportsExactly(res, spec.EndToEnd); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		for _, m := range spec.EndToEnd {
			if s := res.Metrics[m.Name]; s.Value <= 0 {
				t.Errorf("%s: %s = %+v", w, m.Name, s)
			}
		}
	}
}

// TestSmokeTraced runs the traced run twice on one seed and (unless -short)
// once on another: every per-layer metric is reported each time, the counts
// that must repeat exactly do, and a different seed changes inputs, not
// names.
func TestSmokeTraced(t *testing.T) {
	spec := loadedSpec(t)
	exact := []string{"btree.pages_per_probe", "vfs.fsyncs_per_commit", "vfs.bytes_written_per_commit", "stree.pages_examined_per_query"}
	run := func(seed int64) *result {
		res, err := runTraced(context.Background(), smokeConfig(t, "point", seed))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("seed %d: correct=%v failed=%d", seed, res.Correct, res.Failed)
		}
		if err := reportsExactly(res, spec.PerLayer); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		return res
	}
	a, b := run(1), run(1)
	for _, name := range exact {
		if a.Metrics[name].Value != b.Metrics[name].Value {
			t.Errorf("%s: %v then %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
		}
	}
	if _, err := os.Stat(a.Info["trace_file"].(string)); err != nil {
		t.Errorf("trace file: %v", err)
	}
	if testing.Short() {
		return
	}
	other := run(2)
	if a.Metrics["vfs.bytes_written_per_commit"].Value == other.Metrics["vfs.bytes_written_per_commit"].Value {
		t.Errorf("vfs.bytes_written_per_commit is %v on seeds 1 and 2: the seed does not reach the inputs", a.Metrics["vfs.bytes_written_per_commit"].Value)
	}
}
