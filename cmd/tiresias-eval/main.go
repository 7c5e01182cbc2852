// Command tiresias-eval scores a detection run against the ground
// truth that cmd/tiresias-gen injected, closing the loop:
//
//	tiresias-gen -days 2 -anomaly 'vho1:150:154:300' \
//	    -out data.csv -truth truth.json
//	tiresias -in data.csv -window 96 -store anomalies.jsonl
//	tiresias-eval -truth truth.json -anomalies anomalies.jsonl -window 96
//
// The -anomalies file is the JSON lines cmd/tiresias -store writes
// (tiresias.ReadAnomalies); a JSON array is rejected.
//
// An injected anomaly counts as detected when any reported anomaly
// falls inside its timeunit span (±slack) at the anomaly's node or any
// descendant. Reported anomalies matching no injected span are false
// alarms.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tiresias"
	"tiresias/internal/gen"
)

// truthFile mirrors cmd/tiresias-gen's sidecar format.
type truthFile struct {
	DeltaMinutes int               `json:"deltaMinutes"`
	Start        time.Time         `json:"start"`
	Anomalies    []gen.AnomalySpec `json:"anomalies"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tiresias-eval:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tiresias-eval", flag.ContinueOnError)
	var (
		truthPath = fs.String("truth", "", "ground-truth JSON from tiresias-gen -truth")
		anomsPath = fs.String("anomalies", "", "anomaly JSON lines from tiresias -store")
		window    = fs.Int("window", 0, "detector warmup window ℓ (timeunits), to align instance numbering")
		slack     = fs.Int("slack", 1, "timeunits of slack around each injected span")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *truthPath == "" || *anomsPath == "" {
		return fmt.Errorf("both -truth and -anomalies are required")
	}
	var truth truthFile
	if err := readJSON(*truthPath, &truth); err != nil {
		return err
	}
	f, err := os.Open(*anomsPath)
	if err != nil {
		return err
	}
	anoms, err := tiresias.ReadAnomalies(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: %w", *anomsPath, err)
	}

	detected := 0
	matchedAlarm := make([]bool, len(anoms))
	for _, spec := range truth.Anomalies {
		lo := spec.StartUnit - *window - *slack
		hi := spec.EndUnit - *window + *slack
		hit := false
		for i, a := range anoms {
			if a.Instance >= lo && a.Instance < hi && spec.Key().IsAncestorOf(a.Key) {
				hit = true
				matchedAlarm[i] = true
			}
		}
		status := "MISSED"
		if hit {
			status = "detected"
			detected++
		}
		fmt.Fprintf(stdout, "%-8s %s units [%d,%d) rate %.1f shape %s\n",
			status, spec.Key(), spec.StartUnit, spec.EndUnit, spec.ExtraPerUnit, spec.Shape)
	}
	falseAlarms := 0
	for _, m := range matchedAlarm {
		if !m {
			falseAlarms++
		}
	}
	total := len(truth.Anomalies)
	recall := 0.0
	if total > 0 {
		recall = float64(detected) / float64(total)
	}
	precision := 0.0
	if len(anoms) > 0 {
		precision = float64(len(anoms)-falseAlarms) / float64(len(anoms))
	}
	fmt.Fprintf(stdout, "\ninjected=%d detected=%d recall=%.1f%%\n", total, detected, 100*recall)
	fmt.Fprintf(stdout, "alarms=%d matching=%d precision=%.1f%%\n", len(anoms), len(anoms)-falseAlarms, 100*precision)
	return nil
}

func readJSON(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
