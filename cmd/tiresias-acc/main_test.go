package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestJSONStdoutIsBaseline runs the suite with -json - and requires
// stdout to be the committed scorecard byte for byte: nothing but the
// document goes there, and detections have not moved. A change that
// moves them on purpose re-records ACC_baseline.json.
func TestJSONStdoutIsBaseline(t *testing.T) {
	want, err := os.ReadFile("../../ACC_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-json", "-"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("stdout differs from ACC_baseline.json:\n%s", stdout.String())
	}
	if !strings.HasPrefix(stderr.String(), "tiresias-acc seed=1 ") {
		t.Fatalf("summary not on stderr:\n%s", stderr.String())
	}
}

// TestTwoStdoutDocumentsRefused checks -json - -md - is an error
// before any scenario runs.
func TestTwoStdoutDocumentsRefused(t *testing.T) {
	var stdout bytes.Buffer
	err := run([]string{"-json", "-", "-md", "-"}, &stdout, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "two documents") {
		t.Fatalf("err = %v, want a refusal naming two documents", err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("stdout written before the refusal:\n%s", stdout.String())
	}
}
