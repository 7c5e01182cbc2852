package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in spec.go")

// benchmarkFile mirrors BENCHMARK.json, the driver's contract.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []fileWorkload `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func better(m metric) string {
	if m.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesSpec keeps the contract file and the code
// that prints the metrics from drifting apart: same workloads, same
// metric names, units, directions and bounds, same run length. Run
// with -update after editing spec.go.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	want := benchmarkFile{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, fileWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		if bound <= 0 || bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, bound)
		}
		want.EndToEnd = append(want.EndToEnd, fileMetric{m.name, m.unit, better(m), &bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, fileMetric{m.name, m.unit, better(m), nil})
	}
	raw, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')

	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Errorf("BENCHMARK.json differs from spec.go; run `go test ./bench -run BenchmarkJSON -update` and review the diff.\nwant:\n%s", raw)
	}
}
