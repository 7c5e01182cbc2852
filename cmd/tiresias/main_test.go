package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tiresias"
	"tiresias/internal/fault"
	"tiresias/internal/gen"
	"tiresias/internal/stream"
)

// writeDataset emits a small CSV dataset with an injected spike and
// returns its path plus the spike window.
func writeDataset(t *testing.T) string {
	t.Helper()
	cfg := gen.Config{
		Shape:           gen.Shape{Degrees: []int{3, 2}, LevelPrefix: []string{"v", "io"}},
		Start:           time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC),
		Units:           72,
		Delta:           15 * time.Minute,
		BaseRate:        30,
		DiurnalStrength: 0.4,
		ZipfS:           0.7,
		Seed:            9,
		Anomalies: []gen.AnomalySpec{{
			Path: []string{"v1"}, StartUnit: 60, EndUnit: 64, ExtraPerUnit: 300,
		}},
	}
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range ds.Records {
		b.WriteString(stream.MarshalCSVish(r))
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDetectsAndStores(t *testing.T) {
	path := writeDataset(t)
	storePath := filepath.Join(t.TempDir(), "anoms.jsonl")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-in", path, "-window", "48", "-theta", "4",
		"-rt", "2.5", "-dt", "8", "-store", storePath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "anomaly ") {
		t.Fatalf("no anomalies reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "processed 24 timeunits") {
		t.Fatalf("summary missing:\n%s", out.String())
	}
	assertStoreMatchesStdout(t, storePath, out.String())
}

// assertStoreMatchesStdout requires the -store file to hold one JSON
// line per anomaly the run printed on stdout, in the same order.
func assertStoreMatchesStdout(t *testing.T, storePath, stdout string) {
	t.Helper()
	raw, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := tiresias.ReadAnomalies(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(raw, []byte("\n")); lines != len(stored) {
		t.Fatalf("-store file has %d lines for %d anomalies, want one per line", lines, len(stored))
	}
	var want, got strings.Builder
	for _, line := range strings.SplitAfter(stdout, "\n") {
		if strings.HasPrefix(line, "anomaly ") {
			want.WriteString(line)
		}
	}
	for _, a := range stored {
		printAnomaly(&got, a)
	}
	if got.String() != want.String() {
		t.Fatalf("-store file holds:\n%s\nstdout reported:\n%s", got.String(), want.String())
	}
}

func TestRunQuietSuppressesAnomalyLines(t *testing.T) {
	path := writeDataset(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-in", path, "-window", "48", "-theta", "4", "-quiet"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "anomaly ") {
		t.Fatal("-quiet must suppress per-anomaly lines")
	}
}

func TestRunErrors(t *testing.T) {
	path := writeDataset(t)
	tests := []struct {
		name string
		args []string
		want string // error substring, when the message matters
	}{
		{name: "missing file", args: []string{"-in", "/does/not/exist"}},
		{name: "bad format", args: []string{"-in", path, "-format", "xml"}},
		{name: "bad algo", args: []string{"-in", path, "-algo", "sta"}, want: "flag provided but not defined: -algo"},
		{name: "bad rule", args: []string{"-in", path, "-rule", "nope"}},
		{name: "bad thresholds", args: []string{"-in", path, "-rt", "0"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(context.Background(), tt.args, &out)
			if err == nil {
				t.Fatal("run must fail")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("error %q does not mention %q", err, tt.want)
			}
		})
	}
}

func TestParseRule(t *testing.T) {
	for _, s := range []string{"uniform", "last-time-unit", "long-term-history", "ewma"} {
		if _, err := parseRule(s); err != nil {
			t.Fatalf("parseRule(%s): %v", s, err)
		}
	}
	if _, err := parseRule("x"); err == nil {
		t.Fatal("unknown rule must fail")
	}
}

func TestRunJSONLInput(t *testing.T) {
	// Convert a few CSV records to JSONL and run.
	recs := []stream.Record{
		{Path: []string{"a", "b"}, Time: time.Date(2010, 5, 3, 0, 1, 0, 0, time.UTC)},
		{Path: []string{"a", "c"}, Time: time.Date(2010, 5, 3, 0, 20, 0, 0, time.UTC)},
		{Path: []string{"a", "b"}, Time: time.Date(2010, 5, 3, 0, 40, 0, 0, time.UTC)},
	}
	var b strings.Builder
	for _, r := range recs {
		j, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(j)
		b.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "data.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-in", path, "-format", "jsonl", "-window", "2", "-theta", "1"}, &out); err != nil {
		t.Fatal(err)
	}
}

// cancelAtFirstAnomaly is a stdout that cancels the run the moment
// the first anomaly line is written through it.
type cancelAtFirstAnomaly struct {
	bytes.Buffer
	cancel context.CancelFunc
}

func (w *cancelAtFirstAnomaly) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("anomaly ")) {
		w.cancel()
	}
	return w.Buffer.Write(p)
}

func TestRunCanceledStillReportsPartialResults(t *testing.T) {
	path := writeDataset(t)
	storePath := filepath.Join(t.TempDir(), "partial.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := &cancelAtFirstAnomaly{cancel: cancel}
	err := run(ctx, []string{"-in", path, "-window", "48", "-theta", "4", "-store", storePath}, out)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run must surface the context error, got %v", err)
	}
	if !strings.Contains(out.String(), "processed ") {
		t.Fatalf("canceled run must still print the summary:\n%s", out.String())
	}
	if strings.Contains(out.String(), "processed 24 timeunits") {
		t.Fatalf("run was not cut short by the cancel:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "anomaly ") {
		t.Fatalf("no anomaly reported before the cancel:\n%s", out.String())
	}
	assertStoreMatchesStdout(t, storePath, out.String())
}

// writeSplitDataset emits one full CSV dataset plus the same records
// split into two files at a timeunit boundary, for checkpoint/resume
// equivalence testing.
func writeSplitDataset(t *testing.T) (full, part1, part2 string) {
	t.Helper()
	cfg := gen.Config{
		Shape:           gen.Shape{Degrees: []int{3, 2}, LevelPrefix: []string{"v", "io"}},
		Start:           time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC),
		Units:           72,
		Delta:           15 * time.Minute,
		BaseRate:        30,
		DiurnalStrength: 0.4,
		ZipfS:           0.7,
		Seed:            9,
		Anomalies: []gen.AnomalySpec{{
			Path: []string{"v1"}, StartUnit: 60, EndUnit: 64, ExtraPerUnit: 300,
		}},
	}
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boundary := cfg.Start.Add(50 * cfg.Delta)
	var all, one, two strings.Builder
	for _, r := range ds.Records {
		line := stream.MarshalCSVish(r) + "\n"
		all.WriteString(line)
		if r.Time.Before(boundary) {
			one.WriteString(line)
		} else {
			two.WriteString(line)
		}
	}
	dir := t.TempDir()
	write := func(name, data string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	return write("full.csv", all.String()), write("part1.csv", one.String()), write("part2.csv", two.String())
}

// TestRunCheckpointResume runs a stream whole, then in two halves with
// a checkpoint/resume in between: the JSON anomaly output must match.
func TestRunCheckpointResume(t *testing.T) {
	full, part1, part2 := writeSplitDataset(t)
	ckpt := filepath.Join(t.TempDir(), "state.ckpt")
	common := []string{"-window", "48", "-theta", "4", "-json"}

	var wantOut bytes.Buffer
	if err := run(context.Background(), append([]string{"-in", full}, common...), &wantOut); err != nil {
		t.Fatal(err)
	}

	var out1, out2 bytes.Buffer
	if err := run(context.Background(), append([]string{"-in", part1, "-checkpoint", ckpt}, common...), &out1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}
	if err := run(context.Background(), append([]string{"-in", part2, "-resume", ckpt, "-checkpoint", ckpt}, common...), &out2); err != nil {
		t.Fatal(err)
	}
	got := out1.String() + out2.String()
	if got != wantOut.String() {
		t.Fatalf("resumed anomaly stream differs from uninterrupted run:\n got:\n%s\nwant:\n%s", got, wantOut.String())
	}
	if wantOut.Len() == 0 {
		t.Fatal("expected anomalies in the dataset (injected burst)")
	}
}

// TestRunResumeErrors covers the bad-checkpoint paths of -resume.
func TestRunResumeErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-resume", "/does/not/exist"}, &out); err == nil {
		t.Fatal("missing checkpoint file must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-resume", bad}, &out); err == nil {
		t.Fatal("corrupt checkpoint must fail")
	}
}

// TestWriteCheckpointCrashPoints enumerates every filesystem
// operation of writeCheckpoint's temp-file-plus-rename protocol and
// crashes at each one (that op and everything after it fails). After
// every crash the previously committed checkpoint at the target path
// must survive byte-identically and still be restorable — the
// guarantee that makes `-checkpoint state.ckpt` safe to point at the
// file being replaced.
func TestWriteCheckpointCrashPoints(t *testing.T) {
	defer func() { ckptFS = fault.OS{} }()
	det, err := tiresias.New()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.ckpt")

	// Probe run: seed a committed checkpoint and count the protocol's
	// operations.
	probe := fault.NewInjector(nil)
	ckptFS = probe
	if err := writeCheckpoint(det, path); err != nil {
		t.Fatal(err)
	}
	total := probe.Ops()
	if total < 4 {
		t.Fatalf("suspiciously few checkpoint ops: %d", total)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for i := int64(1); i <= total; i++ {
		in := fault.NewInjector(nil).FailFrom(i)
		ckptFS = in
		err := writeCheckpoint(det, path)
		if in.Injected() == 0 {
			t.Fatalf("crash at op %d: fault never injected", i)
		}
		if err == nil {
			t.Fatalf("crash at op %d: writeCheckpoint reported success while the disk was dead", i)
		}
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("crash at op %d: committed checkpoint unreadable: %v", i, rerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("crash at op %d: committed checkpoint changed", i)
		}
		f, oerr := os.Open(path)
		if oerr != nil {
			t.Fatal(oerr)
		}
		if _, rerr := tiresias.Restore(f); rerr != nil {
			t.Fatalf("crash at op %d: committed checkpoint no longer restores: %v", i, rerr)
		}
		f.Close()
	}
	t.Logf("chaos-summary: cmd-checkpoint/crash: %d crash points audited, the committed checkpoint survived each", total)
}
