package tiresias

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/checkpoint"
	"tiresias/internal/gen"
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

// runAll runs det over recs and returns the anomalies.
func runAll(t *testing.T, det *Tiresias, recs []Record) []Anomaly {
	t.Helper()
	res, err := det.Run(context.Background(), NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	return res.Anomalies
}

// splitRecords cuts a dataset's records at the start of its unit n.
func splitRecords(ds *gen.Dataset, n int) (before, after []Record) {
	boundary := ds.Config.Start.Add(time.Duration(n) * ds.Config.Delta)
	for _, r := range ds.Records {
		if r.Time.Before(boundary) {
			before = append(before, r)
		} else {
			after = append(after, r)
		}
	}
	return before, after
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

// testRoundTrip checks the snapshot → restore → identical-anomaly-
// stream property at one split point: the reference detector never
// stops; the probe detector runs the records of the first splitAt
// units, is snapshotted and restored, and must finish the stream
// bit-identically.
func testRoundTrip(t *testing.T, ds *gen.Dataset, splitAt int) {
	t.Helper()
	ref, err := New(checkpointOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	want := runAll(t, ref, ds.Records)

	det, err := New(checkpointOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	part1, part2 := splitRecords(ds, splitAt)
	got := runAll(t, det, part1)

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
	got = append(got, runAll(t, restored, part2)...)
	sameAnomalies(t, fmt.Sprintf("split at %d", splitAt), want, got)
}

func TestCheckpointRoundTripADA(t *testing.T) {
	ds := ckptDataset(t, 160, 42)
	warmLen, units := 48, ds.Config.Units
	// Property across several split points, including immediately
	// after warmup and right inside an injected anomaly burst.
	for _, splitAt := range []int{warmLen, warmLen + 7, units / 2, units/2 + 2, units - 1} {
		testRoundTrip(t, ds, splitAt)
	}
}

// TestSplitEWMAAlpha: WithSplitEWMAAlpha reaches the EWMA split rule,
// so α = 0.9 and the default 0.4 leave different series after the
// workload's splits, and a checkpoint carries it: a restored α = 0.9
// detector finishes the stream in the byte-identical state of the run
// that never stopped.
func TestSplitEWMAAlpha(t *testing.T) {
	ds := ckptDataset(t, 160, 42)
	newDet := func(alpha float64) *Tiresias {
		t.Helper()
		det, err := New(append(checkpointOpts(), WithSplitRule(EWMARule), WithSplitEWMAAlpha(alpha))...)
		if err != nil {
			t.Fatal(err)
		}
		return det
	}
	snapshot := func(det *Tiresias) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := det.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	series := func(det *Tiresias) []algo.SeriesState {
		t.Helper()
		st, err := det.Engine().ExportState()
		if err != nil {
			t.Fatal(err)
		}
		return st.Series
	}

	ref, def := newDet(0.9), newDet(0.4)
	runAll(t, ref, ds.Records)
	runAll(t, def, ds.Records)
	if reflect.DeepEqual(series(ref), series(def)) {
		t.Fatal("α = 0.9 and α = 0.4 left the same series: the rate does not reach the split rule")
	}

	det := newDet(0.9)
	part1, part2 := splitRecords(ds, 100)
	runAll(t, det, part1)
	restored, err := Restore(bytes.NewReader(snapshot(det)))
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, restored, part2)
	if !bytes.Equal(snapshot(restored), snapshot(ref)) {
		t.Fatal("restored α = 0.9 detector diverged from the uninterrupted run")
	}
}

// TestCheckpointRunResume splits a record stream at a timeunit
// boundary: Run part one, snapshot, restore, Run part two. The
// combined anomaly stream must match a single uninterrupted Run.
func TestCheckpointRunResume(t *testing.T) {
	ds := ckptDataset(t, 140, 44)
	part1, part2 := splitRecords(ds, 90)
	if len(part1) == 0 || len(part2) == 0 {
		t.Fatal("bad split: one part is empty")
	}
	opts := []Option{WithDelta(15 * time.Minute), WithWindowLen(48), WithTheta(8), WithSeasonality(1.0, 24)}

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
	det, err := New(WithWindowLen(32), WithTheta(8))
	if err != nil {
		t.Fatal(err)
	}
	part1, part2 := splitRecords(ds, 40)
	runAll(t, det, part1)
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

	plain, err := Restore(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := runAll(t, plain, part2)
	var sunk []Anomaly
	restored, err := Restore(bytes.NewReader(raw), WithSink(SinkFuncs{
		Anomaly: func(a Anomaly) { sunk = append(sunk, a) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	runAll(t, restored, part2)
	sameAnomalies(t, "sink delivery", want, sunk)
	if len(sunk) == 0 {
		t.Fatal("expected anomalies through the re-attached sink (dataset has injected bursts)")
	}
}

// TestSnapshotCarriesEveryOption builds a detector with every Option
// off its default and requires Snapshot → Restore to bring back the
// same configuration. Every Config field but the engine selector must
// differ from the default, so a field added without an Option here, or
// without its codec pair, fails the test.
func TestSnapshotCarriesEveryOption(t *testing.T) {
	det, err := New(
		WithDelta(10*time.Minute),
		WithIncrement(5*time.Minute),
		WithWindowLen(48),
		WithTheta(3),
		WithThresholds(Thresholds{RT: 2, DT: 6}),
		WithSplitRule(EWMARule),
		WithSplitEWMAAlpha(0.25),
		WithReferenceLevels(3),
		WithMultiScale(3, 3),
		WithHoltWinters(0.5, 0.1, 0.2),
		WithSeasonality(0.6, 12, 48),
		WithMaxGap(500),
		WithSink(SinkFuncs{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	got, def := reflect.ValueOf(det.opts.Config), reflect.ValueOf(defaultOptions().Config)
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		if reflect.DeepEqual(got.Field(i).Interface(), def.Field(i).Interface()) {
			t.Errorf("Config.%s = %v, the default; set it off its default here", name, got.Field(i))
		}
	}
	var buf bytes.Buffer
	if err := det.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.opts.Config, det.opts.Config) {
		t.Fatalf("restored config\n %+v\nwant\n %+v", restored.opts.Config, det.opts.Config)
	}
}

// TestRestoreRejectsBadInput fuzzes the decoder with every truncation
// and every single-byte corruption of a real checkpoint, plus a
// version bump: all must fail with ErrBadCheckpoint and none may
// panic.
func TestRestoreRejectsBadInput(t *testing.T) {
	ds := ckptDataset(t, 70, 46)
	det, err := New(WithWindowLen(24), WithTheta(8), WithSeasonality(1.0, 12))
	if err != nil {
		t.Fatal(err)
	}
	part1, _ := splitRecords(ds, 30)
	runAll(t, det, part1)
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
	if future[8] != checkpoint.Version {
		t.Fatalf("expected version byte %d at offset 8, got %d", checkpoint.Version, future[8])
	}
	future[8] = checkpoint.Version + 1
	if _, err := Restore(bytes.NewReader(future)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("future version: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestRestoreRejectsUnreachableWindowState: Restore refuses windowing
// states no detector reaches, and so no Snapshot writes — a warm-up
// buffer on a warm detector, a buffer of a whole window (warm-up runs
// the moment it fills), warm-up pairs not in strictly ascending ID
// order — rather than resuming a stream that carries them forward.
func TestRestoreRejectsUnreachableWindowState(t *testing.T) {
	opts := []Option{WithWindowLen(8), WithTheta(2)}
	warm, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	stepUnits(t, warm, repeat(counts{"a/b": 3, "c": 1}, 9)...)
	cold, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	stepUnits(t, cold, repeat(counts{"a/b": 3, "c": 1}, 5)...)
	if !warm.Warm() || cold.Warm() || len(cold.win.buf) != 5 {
		t.Fatalf("warm %v, cold %v with %d buffered units; want a warm and a warming detector", warm.Warm(), cold.Warm(), len(cold.win.buf))
	}
	unit := func(ids ...int32) *algo.DenseUnit { return algo.PairsOf(ids, make([]float64, len(ids))) }
	units := func(n int) []*algo.DenseUnit {
		out := make([]*algo.DenseUnit, n)
		for i := range out {
			out[i] = unit(1, 2)
		}
		return out
	}
	for _, tc := range []struct {
		name string
		det  *Tiresias
		buf  []*algo.DenseUnit
		ok   bool
	}{
		{"the warming detector's own buffer", cold, cold.win.buf, true},
		{"warm detector with a buffer", warm, units(1), false},
		{"warm detector with a buffer past the window", warm, units(20), false},
		{"buffer of a whole window", cold, units(8), false},
		{"unit IDs descending", cold, []*algo.DenseUnit{unit(2, 1)}, false},
		{"unit ID repeated", cold, []*algo.DenseUnit{unit(1, 1)}, false},
	} {
		snap, err := tc.det.snapshotState(true)
		if err != nil {
			t.Fatal(err)
		}
		snap.Stream.WarmBuf = tc.buf
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		_, err = Restore(&buf)
		if tc.ok && err != nil {
			t.Errorf("%s: Restore = %v, want success", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: Restore = %v, want ErrBadCheckpoint", tc.name, err)
		}
	}
}

// feedAll feeds records into a manager stream, collecting anomalies.
func feedAll(t *testing.T, m *Manager, name string, recs []Record) []Anomaly {
	t.Helper()
	var out []Anomaly
	for _, r := range recs {
		anoms, err := feed(m, name, r)
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
// wrong-file cases, and Restore of a Manager stream file.
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

	// The mirror image is accepted: a per-stream file from a Manager
	// checkpoint restores as a bare detector that continues exactly as
	// the managed stream does — its partial unit is detector state.
	ds := ckptDataset(t, 80, 49)
	opts := []Option{WithWindowLen(32), WithTheta(8), WithSeasonality(1.0, 16)}
	m, err := NewManager(WithDetectorOptions(opts...))
	if err != nil {
		t.Fatal(err)
	}
	split := 2 * len(ds.Records) / 3 // warm, mid-unit
	if _, _, err := m.FeedBatch("s1", ds.Records[:split]); err != nil {
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
	restored, err := Restore(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("manager stream file through Restore: %v", err)
	}
	res, err := restored.Run(context.Background(), NewSliceSource(ds.Records[split:]))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := m.FeedBatch("s1", ds.Records[split:])
	if err != nil {
		t.Fatal(err)
	}
	flushed, err := m.Flush("s1")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, flushed...)
	if len(want) == 0 {
		t.Fatal("the managed stream detects nothing after the split; the workload no longer exercises the restore")
	}
	sameAnomalies(t, "manager stream file through Restore", want, res.Anomalies)
	var got, managed bytes.Buffer
	if err := restored.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := m.shardOf("s1").streams["s1"].det.Snapshot(&managed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), managed.Bytes()) {
		t.Fatal("the restored detector's Snapshot differs from the managed stream's")
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
				if _, err := feed(m, name, r); err != nil {
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
