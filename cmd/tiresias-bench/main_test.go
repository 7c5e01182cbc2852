package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table1", "table6", "fig12", "sensitivity"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("missing %s in list:\n%s", id, out.String())
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-exp", "fig9", "-seed", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig. 9") {
		t.Fatalf("output missing figure:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-profile", "nope"}, &out); err == nil {
		t.Fatal("unknown profile must fail")
	}
	if err := run([]string{"-exp", "nope"}, &out); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}
