package main

// spec.go — BENCHMARK.json at the repo root is the one place that names the
// workloads and the metrics with their units, directions and bounds. The
// program loads it at start: a run prints exactly the metrics it lists and
// fails on one it does not report, compare takes bounds and directions
// from it. README.md documents what each metric measures and should move.

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is the part of BENCHMARK.json the program uses.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func loadSpec(path string) (*benchSpec, error) {
	var s benchSpec
	if err := readJSON(path, &s); err != nil {
		return nil, err
	}
	if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no workloads or no metrics", path)
	}
	return &s, nil
}

// metrics lists what a run reports: the per-layer metrics when traced, the
// end-to-end ones otherwise.
func (s *benchSpec) metrics(traced bool) []benchMetric {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}
