package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric declaration of BENCHMARK.json. Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before it counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json. It is the single source of metric
// names, units and bounds: the harness computes values by name and takes
// everything else from here, so the contract file and the harness cannot
// drift apart silently (a value the harness does not produce for a
// declared name is an error, see selectMetrics).
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json. The wrapper runs the harness from the
// root; `go test` runs it from benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workloadNames() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// metricValue is one reported number. Samples is the number of
// observations behind a timing (0 for counts and ratios).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// selectMetrics picks the declared metrics out of the computed values,
// attaching the declared unit. A declared metric the run did not compute
// is an error: every workload reports every metric of its mode.
func selectMetrics(decl []metricSpec, values map[string]metricValue) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decl))
	for _, m := range decl {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not measured", m.Name)
		}
		v.Unit = m.Unit
		out[m.Name] = v
	}
	return out, nil
}
