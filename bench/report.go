package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
)

// metricValue is one measured number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo describes where a report was measured. Reports from
// different environments are not comparable.
type envInfo struct {
	NProc          int    `json:"nproc"`
	ServerProcs    int    `json:"server_gomaxprocs"`
	GeneratorProcs int    `json:"generator_gomaxprocs"`
	GoVersion      string `json:"go_version"`
	Kernel         string `json:"kernel"`
	Commit         string `json:"commit"`
}

// environment fills the env block. The server keeps Go's default
// GOMAXPROCS; the commit is unknown outside a git checkout.
func environment(root string) envInfo {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{
		NProc:          runtime.NumCPU(),
		ServerProcs:    runtime.NumCPU(),
		GeneratorProcs: generatorProcs(),
		GoVersion:      runtime.Version(),
		Kernel:         kernelVersion(),
		Commit:         commit,
	}
}

// comparable reports why two environments cannot be gated against
// each other, "" when they can. Commits are expected to differ.
func (e envInfo) comparable(o envInfo) string {
	e.Commit, o.Commit = "", ""
	if e != o {
		return fmt.Sprintf("%+v vs %+v", e, o)
	}
	return ""
}

// workloadReport is one workload's result within a set.
type workloadReport struct {
	Name        string                 `json:"name"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	FailedShare float64                `json:"failed_share"`
	EndToEnd    map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Info        map[string]any         `json:"info"`
}

// runSet is one pass over every workload.
type runSet struct {
	Workloads []workloadReport `json:"workloads"`
}

// report is the full output of `go run ./bench`.
type report struct {
	Env     envInfo  `json:"env"`
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Runs    []runSet `json:"runs"`
}

// values collects one end-to-end metric of one workload over every
// run of the report.
func (r report) values(workload, metric string) []float64 {
	var out []float64
	for _, set := range r.Runs {
		for _, w := range set.Workloads {
			if mv, ok := w.EndToEnd[metric]; ok && w.Name == workload {
				out = append(out, mv.Value)
			}
		}
	}
	return out
}

// worseBy returns by what share of base the value got worse, in the
// metric's own direction; negative when it improved.
func (m metric) worseBy(base, val float64) float64 {
	if base == 0 {
		return 0
	}
	if m.higher {
		return (base - val) / base
	}
	return (val - base) / base
}

// rangeShare is (max−min)/median, the spread of a few repeated runs.
func rangeShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (s[len(s)-1] - s[0]) / math.Abs(m)
}

// printAgreement prints, per workload and end-to-end metric, each
// run's value and whether all runs agree within the metric's bound.
func printAgreement(w io.Writer, rep report) bool {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalues\tspread\tbound\tagree")
	all := true
	for _, wl := range workloads {
		for _, m := range endToEnd {
			vals := rep.values(wl.name, m.name)
			sp := rangeShare(vals)
			agree := sp <= m.bound
			all = all && agree
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f%%\t%.0f%%\t%v\n", wl.name, m.name, fmtValues(vals), 100*sp, 100*m.bound, agree)
		}
	}
	tw.Flush()
	return all
}

func fmtValues(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(parts, " ")
}

func readReport(path string) (report, error) {
	var r report
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareReports gates report b against base a: one row per workload
// and end-to-end metric with both medians and b's change as a share of
// a. A metric whose own run-to-run spread exceeds its bound in either
// report is unresolved, not unchanged. Mismatched environments are
// refused. The exit code is 1 when any metric regressed.
func compareReports(pathA, pathB string) int {
	a, err := readReport(pathA)
	if err != nil {
		logf("%v", err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if why := a.Env.comparable(b.Env); why != "" {
		logf("refusing to compare across environments: %s", why)
		return 2
	}
	if a.Seconds != b.Seconds {
		logf("refusing to compare runs of different length: %vs vs %vs", a.Seconds, b.Seconds)
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\t%s\t%s\tchange (base %s)\tbound\tverdict\n", pathA, pathB, pathA)
	code := 0
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(wl.name, m.name), b.values(wl.name, m.name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\tmissing\n", wl.name, m.name)
				code = 1
				continue
			}
			ma, mb := median(append([]float64(nil), va...)), median(append([]float64(nil), vb...))
			worse := m.worseBy(ma, mb)
			verdict := "ok"
			switch {
			case rangeShare(va) > m.bound || rangeShare(vb) > m.bound:
				verdict = "unresolved"
			case worse > m.bound:
				verdict = "REGRESSED"
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.0f%%\t%s\n", wl.name, m.name, ma, mb, 100*(mb-ma)/ma, 100*m.bound, verdict)
		}
	}
	tw.Flush()
	return code
}
