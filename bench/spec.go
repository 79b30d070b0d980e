package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the contract the driver holds the
// benchmark to. The benchmark reads its run length and, for -check, the
// regression bounds from it, so the two cannot drift apart.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`

	// root is the directory BENCHMARK.json was found in.
	root string
}

// loadSpec finds BENCHMARK.json in the working directory (the repository
// root, where the driver and run.sh start the benchmark) or its parent
// (go run/test inside bench/).
func loadSpec() (*benchSpec, error) {
	for _, dir := range []string{".", ".."} {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		if s.RunSeconds < 1 || len(s.Paths) == 0 {
			return nil, fmt.Errorf("BENCHMARK.json: run_seconds and paths are required")
		}
		s.root = dir
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in the working directory or its parent; start the benchmark from the repository root")
}

// outDir is where trace files and spill segments go: out/ inside the
// benchmark's own directory, which bench/.gitignore keeps out of git.
func (s *benchSpec) outDir() string {
	return filepath.Join(s.root, filepath.Clean(s.Paths[0]), "out")
}

// bound returns the regression bound of an end-to-end metric.
func (s *benchSpec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}
