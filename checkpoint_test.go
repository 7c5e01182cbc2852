package tiresias

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tiresias/internal/gen"
	"tiresias/internal/stream"
)

// ckptDataset builds a deterministic workload with injected anomalies
// so the round-trip tests screen real detections, not just quiet
// baseline.
func ckptDataset(t *testing.T, units int, seed int64) *gen.Dataset {
	t.Helper()
	ds, err := gen.Generate(gen.Config{
		Shape:           gen.Shape{Degrees: []int{4, 3, 2}, LevelPrefix: []string{"v", "c", "d"}},
		Start:           time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC),
		Units:           units,
		Delta:           15 * time.Minute,
		BaseRate:        80,
		DiurnalStrength: 0.5,
		WeeklyStrength:  0.2,
		ZipfS:           1.1,
		Seed:            seed,
		Anomalies: []gen.AnomalySpec{
			{Path: []string{"v1"}, StartUnit: units / 2, EndUnit: units/2 + 4, ExtraPerUnit: 600},
			{Path: []string{"v2", "c1"}, StartUnit: 3 * units / 4, EndUnit: 3*units/4 + 3, ExtraPerUnit: 500},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// sameAnomalies asserts two anomaly streams are bit-identical: equal
// keys, instances, times, and float64 bit patterns.
func sameAnomalies(t *testing.T, label string, want, got []Anomaly) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d anomalies, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Key != g.Key || w.Depth != g.Depth || w.Instance != g.Instance || !w.Time.Equal(g.Time) ||
			math.Float64bits(w.Actual) != math.Float64bits(g.Actual) ||
			math.Float64bits(w.Forecast) != math.Float64bits(g.Forecast) {
			t.Fatalf("%s: anomaly %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// processAll steps det over units, collecting copies of all anomalies.
func processAll(t *testing.T, det *Tiresias, units []Timeunit) []Anomaly {
	t.Helper()
	var out []Anomaly
	for _, u := range units {
		sr, err := det.ProcessUnit(u)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sr.Anomalies...)
	}
	return out
}

// checkpointOpts is the option set the round-trip property runs with,
// exercising seasonal Holt-Winters models, reference-series repair,
// and the multi-timescale series.
func checkpointOpts() []Option {
	return []Option{
		WithDelta(15 * time.Minute),
		WithWindowLen(48),
		WithTheta(8),
		WithReferenceLevels(2),
		WithSeasonality(1.0, 24),
		WithMultiScale(2, 2),
	}
}

// preintern inserts every key of the unit stream into the detector's
// hierarchy in sorted order. Map-form units are inserted in map
// iteration order during Warmup/Step, so two independent detectors
// would otherwise grow trees with different sibling orders (and
// different float summation orders); pinning the insertion order makes
// the reference and probe runs comparable bit-for-bit. The streaming
// paths (Run, Manager.Feed) don't need this: they intern in record
// arrival order, which is deterministic.
func preintern(det *Tiresias, units []Timeunit) {
	seen := map[Key]bool{}
	var keys []string
	for _, u := range units {
		for k := range u {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, string(k))
			}
		}
	}
	sortStrings(keys)
	for _, k := range keys {
		det.tree.InsertKey(Key(k))
	}
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// testRoundTrip checks the snapshot → restore → identical-anomaly-
// stream property for one engine at one split point: the reference
// detector never stops; the probe detector is snapshotted after
// splitAt units, restored, and must finish the stream bit-identically.
func testRoundTrip(t *testing.T, units []Timeunit, startAt time.Time, warmLen, splitAt int) {
	t.Helper()
	ref, err := New(checkpointOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	preintern(ref, units)
	if err := ref.Warmup(units[:warmLen], startAt); err != nil {
		t.Fatal(err)
	}
	want := processAll(t, ref, units[warmLen:])

	det, err := New(checkpointOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	preintern(det, units)
	if err := det.Warmup(units[:warmLen], startAt); err != nil {
		t.Fatal(err)
	}
	got := processAll(t, det, units[warmLen:splitAt])

	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Warm() {
		t.Fatal("restored detector must be warm")
	}
	if restored.Delta() != det.Delta() || restored.WindowLen() != det.WindowLen() {
		t.Fatal("restored configuration differs")
	}
	if w, g := fmt.Sprint(det.SeasonalPeriods()), fmt.Sprint(restored.SeasonalPeriods()); w != g {
		t.Fatalf("restored seasonal periods %s, want %s", g, w)
	}
	if w, g := fmt.Sprint(det.HeavyHitters()), fmt.Sprint(restored.HeavyHitters()); w != g {
		t.Fatalf("restored heavy hitters %s, want %s", g, w)
	}
	got = append(got, processAll(t, restored, units[splitAt:])...)
	sameAnomalies(t, fmt.Sprintf("split at %d", splitAt), want, got)
}

func TestCheckpointRoundTripADA(t *testing.T) {
	ds := ckptDataset(t, 160, 42)
	units, startAt, err := stream.Collect(stream.NewSliceSource(ds.Records), 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	warmLen := 48
	// Property across several split points, including immediately
	// after warmup and right inside an injected anomaly burst.
	for _, splitAt := range []int{warmLen, warmLen + 7, len(units) / 2, len(units)/2 + 2, len(units) - 1} {
		testRoundTrip(t, units, startAt, warmLen, splitAt)
	}
}

// TestCheckpointRunResume splits a record stream at a timeunit
// boundary: Run part one, snapshot, restore, Run part two. The
// combined anomaly stream must match a single uninterrupted Run.
func TestCheckpointRunResume(t *testing.T) {
	ds := ckptDataset(t, 140, 44)
	delta := 15 * time.Minute
	boundary := ds.Config.Start.Add(time.Duration(90) * delta)
	var part1, part2 []Record
	for _, r := range ds.Records {
		if r.Time.Before(boundary) {
			part1 = append(part1, r)
		} else {
			part2 = append(part2, r)
		}
	}
	if len(part1) == 0 || len(part2) == 0 {
		t.Fatal("bad split: one part is empty")
	}
	opts := []Option{WithDelta(delta), WithWindowLen(48), WithTheta(8), WithSeasonality(1.0, 24)}

	ref, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background(), NewSliceSource(ds.Records))
	if err != nil {
		t.Fatal(err)
	}

	det, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := det.Run(context.Background(), NewSliceSource(part1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := restored.Run(context.Background(), NewSliceSource(part2))
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]Anomaly(nil), res1.Anomalies...), res2.Anomalies...)
	sameAnomalies(t, "run resume", refRes.Anomalies, got)
	if refRes.Units != res1.Units+res2.Units {
		t.Fatalf("units %d+%d, want %d", res1.Units, res2.Units, refRes.Units)
	}
}

// TestRestoreAppliesSinksAndRejectsStructuralChanges covers Restore's
// opts contract.
func TestRestoreAppliesSinksAndRejectsStructuralChanges(t *testing.T) {
	ds := ckptDataset(t, 80, 45)
	units, startAt, err := stream.Collect(stream.NewSliceSource(ds.Records), 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(WithWindowLen(32), WithTheta(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Warmup(units[:32], startAt); err != nil {
		t.Fatal(err)
	}
	processAll(t, det, units[32:40])
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"delta", WithDelta(time.Hour)},
		{"window", WithWindowLen(64)},
		{"increment", WithIncrement(5 * time.Minute)},
	} {
		if _, err := Restore(bytes.NewReader(raw), tc.opt); err == nil {
			t.Fatalf("Restore with changed %s must fail", tc.name)
		}
	}

	var sunk []Anomaly
	restored, err := Restore(bytes.NewReader(raw), WithSink(SinkFuncs{
		Anomaly: func(a Anomaly) { sunk = append(sunk, a) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	got := processAll(t, restored, units[40:])
	sameAnomalies(t, "sink delivery", got, sunk)
	if len(sunk) == 0 {
		t.Fatal("expected anomalies through the re-attached sink (dataset has injected bursts)")
	}
}

// TestRestoreRejectsBadInput fuzzes the decoder with every truncation
// and every single-byte corruption of a real checkpoint, plus a
// version bump: all must fail with ErrBadCheckpoint and none may
// panic.
func TestRestoreRejectsBadInput(t *testing.T) {
	ds := ckptDataset(t, 70, 46)
	units, startAt, err := stream.Collect(stream.NewSliceSource(ds.Records), 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	det, err := New(WithWindowLen(24), WithTheta(8), WithSeasonality(1.0, 12))
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Warmup(units[:24], startAt); err != nil {
		t.Fatal(err)
	}
	processAll(t, det, units[24:30])
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := Restore(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine checkpoint must restore: %v", err)
	}
	for n := 0; n < len(raw); n++ {
		if _, err := Restore(bytes.NewReader(raw[:n])); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("truncation at %d/%d bytes: err = %v, want ErrBadCheckpoint", n, len(raw), err)
		}
	}
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0xff
		if _, err := Restore(bytes.NewReader(mut)); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("corrupt byte %d/%d: err = %v, want ErrBadCheckpoint", i, len(raw), err)
		}
	}
	// A checkpoint from a future format version must be refused.
	future := append([]byte(nil), raw...)
	if future[8] != 1 {
		t.Fatalf("expected version byte 1 at offset 8, got %d", future[8])
	}
	future[8] = 2
	if _, err := Restore(bytes.NewReader(future)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("future version: err = %v, want ErrBadCheckpoint", err)
	}
}

// feedAll feeds records into a manager stream, collecting anomalies.
func feedAll(t *testing.T, m *Manager, name string, recs []Record) []Anomaly {
	t.Helper()
	var out []Anomaly
	for _, r := range recs {
		anoms, err := m.Feed(name, r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, anoms...)
	}
	return out
}

// TestManagerCheckpointRestore snapshots a two-stream manager mid-unit
// (and, for one stream, mid-warmup) and verifies the restored manager
// finishes the feed with bit-identical anomalies and stream statuses.
func TestManagerCheckpointRestore(t *testing.T) {
	dsA := ckptDataset(t, 120, 47)
	dsB := ckptDataset(t, 120, 48)
	opts := []Option{WithWindowLen(32), WithTheta(8), WithSeasonality(1.0, 16)}
	newMgr := func() *Manager {
		m, err := NewManager(WithShards(4), WithDetectorOptions(opts...))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	ref := newMgr()
	wantA := feedAll(t, ref, "alpha", dsA.Records)
	wantB := feedAll(t, ref, "beta", dsB.Records)

	m := newMgr()
	// Split alpha well past warmup, beta inside warmup, both at
	// arbitrary record offsets (mid-unit).
	splitA := 2 * len(dsA.Records) / 3
	splitB := len(dsB.Records) / 5
	gotA := feedAll(t, m, "alpha", dsA.Records[:splitA])
	gotB := feedAll(t, m, "beta", dsB.Records[:splitB])

	dir := filepath.Join(t.TempDir(), "ckpt")
	n, err := m.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("checkpointed %d streams, want 2", n)
	}
	// A second checkpoint supersedes the first: CURRENT flips to the
	// new generation and the old one is pruned.
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(filepath.Join(dir, "CURRENT"))
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(cur)); got != "ckpt-00000002" {
		t.Fatalf("CURRENT = %q, want ckpt-00000002", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("checkpoint dir holds %v, want CURRENT + one generation", names)
	}

	restored, err := ManagerFromCheckpoint(dir, WithShards(4), WithDetectorOptions(opts...))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 2 {
		t.Fatalf("restored %d streams, want 2", restored.Len())
	}
	gotA = append(gotA, feedAll(t, restored, "alpha", dsA.Records[splitA:])...)
	gotB = append(gotB, feedAll(t, restored, "beta", dsB.Records[splitB:])...)
	sameAnomalies(t, "manager stream alpha", wantA, gotA)
	sameAnomalies(t, "manager stream beta", wantB, gotB)

	wantSt, gotSt := ref.Streams(), restored.Streams()
	if len(wantSt) != len(gotSt) {
		t.Fatalf("stream statuses %d, want %d", len(gotSt), len(wantSt))
	}
	for i := range wantSt {
		w, g := wantSt[i], gotSt[i]
		if w.Name != g.Name || w.Warm != g.Warm || w.Units != g.Units ||
			w.Anomalies != g.Anomalies || w.PendingWarmup != g.PendingWarmup || !w.UnitStart.Equal(g.UnitStart) {
			t.Fatalf("stream status %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestManagerFromCheckpointErrors covers the empty-directory and
// wrong-file cases.
func TestManagerFromCheckpointErrors(t *testing.T) {
	// An empty or missing directory is "nothing to restore yet", not a
	// corrupt checkpoint — callers fall back to a cold start on it.
	if _, err := ManagerFromCheckpoint(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: err = %v, want ErrNoCheckpoint", err)
	}
	if _, err := ManagerFromCheckpoint(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: err = %v, want ErrNoCheckpoint", err)
	}
	// A plain detector snapshot (no stream section) is not a manager
	// checkpoint.
	det, err := New(WithWindowLen(8))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "s0000-0000.ckpt"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ManagerFromCheckpoint(dir); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("detector snapshot as stream file: err = %v, want ErrBadCheckpoint", err)
	}

	// The mirror image: a per-stream file from a Manager checkpoint
	// carries windowing state a bare detector cannot hold, so Restore
	// must refuse it instead of dropping records silently.
	m, err := NewManager()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Feed("s1", Record{Path: []string{"a"}, Time: time.Date(2010, 5, 3, 0, 0, 30, 0, time.UTC)}); err != nil {
		t.Fatal(err)
	}
	mdir := filepath.Join(t.TempDir(), "mgr")
	if _, err := m.Checkpoint(mdir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(mdir, "ckpt-*", "*.ckpt"))
	if err != nil || len(files) != 1 {
		t.Fatalf("stream files = %v (err %v), want exactly one", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(bytes.NewReader(raw)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("manager stream file through Restore: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestManagerConcurrentCheckpoint races Feed against Checkpoint under
// the race detector: checkpoints must be consistent snapshots and the
// final one must restore.
func TestManagerConcurrentCheckpoint(t *testing.T) {
	const streams = 6
	datasets := make([]*gen.Dataset, streams)
	for i := range datasets {
		datasets[i] = ckptDataset(t, 60, int64(100+i))
	}
	m, err := NewManager(WithShards(4), WithDetectorOptions(WithWindowLen(16), WithTheta(8)))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("stream-%d", i)
			for _, r := range datasets[i].Records {
				if _, err := m.Feed(name, r); err != nil {
					t.Errorf("feed %s: %v", name, err)
					return
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if _, err := m.Checkpoint(dir); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if t.Failed() {
		return
	}
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	restored, err := ManagerFromCheckpoint(dir, WithDetectorOptions(WithWindowLen(16), WithTheta(8)))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != streams {
		t.Fatalf("restored %d streams, want %d", restored.Len(), streams)
	}
}
