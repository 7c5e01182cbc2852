package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tiresias"
	"tiresias/internal/gen"
	"tiresias/internal/hierarchy"
)

func writeJSON(t *testing.T, name string, v any) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeAnomalies writes anoms as the JSON lines cmd/tiresias -store
// produces.
func writeAnomalies(t *testing.T, name string, anoms []tiresias.Anomaly) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sink := tiresias.NewJSONSink(f)
	for _, a := range anoms {
		sink.OnAnomaly(a)
	}
	if err := errors.Join(sink.Err(), f.Close()); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunScoresDetections(t *testing.T) {
	truth := truthFile{
		DeltaMinutes: 15,
		Start:        time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC),
		Anomalies: []gen.AnomalySpec{
			{Path: []string{"vho1"}, StartUnit: 150, EndUnit: 154, ExtraPerUnit: 300},
			{Path: []string{"vho2"}, StartUnit: 160, EndUnit: 162, ExtraPerUnit: 100},
		},
	}
	anoms := []tiresias.Anomaly{
		// Matches vho1 at fine granularity (window=96: instance 55 → unit 151).
		{Key: hierarchy.KeyOf([]string{"vho1", "io2"}), Instance: 55},
		// Unrelated alarm.
		{Key: hierarchy.KeyOf([]string{"vho3"}), Instance: 10},
	}
	truthPath := writeJSON(t, "truth.json", truth)
	anomsPath := writeAnomalies(t, "anoms.jsonl", anoms)

	var out bytes.Buffer
	err := run([]string{"-truth", truthPath, "-anomalies", anomsPath, "-window", "96"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "detected vho1") {
		t.Fatalf("vho1 not detected:\n%s", s)
	}
	if !strings.Contains(s, "MISSED   vho2") {
		t.Fatalf("vho2 not reported missed:\n%s", s)
	}
	if !strings.Contains(s, "recall=50.0%") {
		t.Fatalf("recall wrong:\n%s", s)
	}
	if !strings.Contains(s, "precision=50.0%") {
		t.Fatalf("precision wrong:\n%s", s)
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("missing flags must fail")
	}
	if err := run([]string{"-truth", "/nope", "-anomalies", "/nope"}, &out); err == nil {
		t.Fatal("missing files must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-truth", bad, "-anomalies", bad}, &out); err == nil {
		t.Fatal("corrupt truth must fail")
	}
	// The JSON array older cmd/tiresias builds wrote is rejected with
	// an error naming the format.
	truthPath := writeJSON(t, "truth.json", truthFile{})
	array := writeJSON(t, "old.json", []tiresias.Anomaly{{Key: hierarchy.KeyOf([]string{"vho1"}), Instance: 4}})
	err := run([]string{"-truth", truthPath, "-anomalies", array}, &out)
	if err == nil || !strings.Contains(err.Error(), "JSON lines") {
		t.Fatalf("JSON-array anomalies: err = %v, want one naming JSON lines", err)
	}
}

// TestRunScoresCLIStoreFile closes the documented loop with the real
// tools: tiresias-gen injects a burst, tiresias -store writes its
// detections, and tiresias-eval scores that file.
func TestRunScoresCLIStoreFile(t *testing.T) {
	dir := t.TempDir()
	data, truth, anoms := filepath.Join(dir, "data.csv"), filepath.Join(dir, "truth.json"), filepath.Join(dir, "anoms.jsonl")
	for _, args := range [][]string{
		{"tiresias/cmd/tiresias-gen", "-days", "2", "-anomaly", "vho1:150:154:300", "-out", data, "-truth", truth},
		{"tiresias/cmd/tiresias", "-in", data, "-window", "96", "-quiet", "-store", anoms},
	} {
		if out, err := exec.Command("go", append([]string{"run"}, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", args[0], err, out)
		}
	}
	var out bytes.Buffer
	if err := run([]string{"-truth", truth, "-anomalies", anoms, "-window", "96"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "detected vho1") || !strings.Contains(out.String(), "recall=100.0%") {
		t.Fatalf("injected burst not scored as detected:\n%s", out.String())
	}
}
