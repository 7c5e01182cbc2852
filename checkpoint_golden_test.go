package tiresias

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/checkpoint"
	"tiresias/internal/gen"
)

var writeGoldenCkpt = flag.Bool("write-golden-ckpt", false,
	"write "+goldenCkptPath+"; only for a deliberate, versioned checkpoint format change")

// goldenDir holds the goldens of the format version Write emits, so
// recording them after a version bump cannot overwrite the pins of an
// older version.
var goldenDir = fmt.Sprintf("testdata/v%d", checkpoint.Version)

// goldenCkptPath is a small warm ADA checkpoint (window 16, a 3×2×2
// hierarchy) committed so a format or engine change that stops old
// checkpoints from restoring, or from resuming bit-identically, fails
// here instead of in production.
var goldenCkptPath = goldenDir + "/ada_w16.ckpt"

// goldenV1CkptPath is the same checkpoint in format version 1 (dense
// float slices), kept byte for byte as the old-form reader's test: it
// must restore, resume bit-identically, and re-encode to
// goldenCkptPath. So must the other old forms in goldenOldCkptPaths.
const goldenV1CkptPath = "testdata/ada_w16.ckpt"

// goldenRingsCkptPath is the same checkpoint in format version 2 as
// written while the engine kept each series' forecast as a ring of ℓ
// samples.
const goldenRingsCkptPath = "testdata/v2rings/ada_w16.ckpt"

// goldenV2CkptPath is the same checkpoint as format version 2 last
// wrote it: a one-sample forecast ring, an engine selector and kind,
// the instance twice, a model per reference series and an empty
// retained-window list.
const goldenV2CkptPath = "testdata/v2/ada_w16.ckpt"

// goldenOldCkptPaths lists the old forms of goldenCkptPath, oldest
// first.
var goldenOldCkptPaths = []string{goldenV1CkptPath, goldenRingsCkptPath, goldenV2CkptPath}

// goldenSplitUnit is the timeunit boundary the golden checkpoint was
// taken at: part one (units before it) was Run, then snapshotted.
const goldenSplitUnit = 30

// goldenWorkload returns the golden run's options and its records split
// at goldenSplitUnit. An injected burst after the split gives the
// resumed half real detections to compare.
func goldenWorkload(t testing.TB) (opts []Option, part1, part2 []Record) {
	t.Helper()
	delta := 15 * time.Minute
	start := time.Date(2011, 3, 7, 0, 0, 0, 0, time.UTC)
	ds, err := gen.Generate(gen.Config{
		Shape:           gen.Shape{Degrees: []int{3, 2, 2}, LevelPrefix: []string{"r", "s", "d"}},
		Start:           start,
		Units:           48,
		Delta:           delta,
		BaseRate:        60,
		DiurnalStrength: 0.3,
		ZipfS:           1.0,
		Seed:            28,
		Anomalies: []gen.AnomalySpec{
			{Path: []string{"r1"}, StartUnit: 36, EndUnit: 39, ExtraPerUnit: 400},
			{Path: []string{"r2", "s0"}, StartUnit: 42, EndUnit: 44, ExtraPerUnit: 300},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	boundary := start.Add(goldenSplitUnit * delta)
	for _, r := range ds.Records {
		if r.Time.Before(boundary) {
			part1 = append(part1, r)
		} else {
			part2 = append(part2, r)
		}
	}
	opts = []Option{WithDelta(delta), WithWindowLen(16), WithTheta(4), WithSeasonality(1.0, 4), WithMultiScale(2, 2)}
	return opts, part1, part2
}

// TestGoldenADACheckpoint restores the committed checkpoint and checks
// that (a) the current code writes the same bytes for the same input,
// (b) the restored detector's next units detect exactly what an
// uninterrupted run detects, from the golden and from each older form
// of it (goldenOldCkptPaths), and (c) each older form re-encodes to the
// current golden.
func TestGoldenADACheckpoint(t *testing.T) {
	opts, part1, part2 := goldenWorkload(t)
	det, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Run(context.Background(), NewSliceSource(part1)); err != nil {
		t.Fatal(err)
	}
	var fresh bytes.Buffer
	if err := det.Snapshot(&fresh); err != nil {
		t.Fatal(err)
	}
	if *writeGoldenCkpt {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCkptPath, fresh.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenCkptPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), golden) {
		t.Fatalf("Snapshot wrote %d bytes that differ from %s (%d bytes): the checkpoint encoding changed", fresh.Len(), goldenCkptPath, len(golden))
	}

	ref, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := ref.Run(context.Background(), NewSliceSource(append(append([]Record(nil), part1...), part2...)))
	if err != nil {
		t.Fatal(err)
	}
	var want []Anomaly
	for _, a := range refRes.Anomalies {
		if !a.Time.Before(part2[0].Time) {
			want = append(want, a)
		}
	}
	if len(want) == 0 {
		t.Fatal("the uninterrupted run detects nothing after the split; the workload no longer exercises the restore")
	}
	for _, path := range append([]string{goldenCkptPath}, goldenOldCkptPaths...) {
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := Restore(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		res, err := restored.Run(context.Background(), NewSliceSource(part2))
		if err != nil {
			t.Fatal(err)
		}
		sameAnomalies(t, "golden resume from "+path, want, res.Anomalies)
		sameReencoding(t, path, file, golden)
	}
}

// sameReencoding requires an old-form file, restored into a detector
// and snapshotted again, to give exactly the current golden bytes: the
// engine, not only the codec, must bring an old file to what a fresh
// run writes. A stream file keeps its name and counters.
func sameReencoding(t *testing.T, name string, old, golden []byte) {
	t.Helper()
	snap, err := checkpoint.Read(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	det, err := restoreFromSnapshot(snap)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	again, err := det.snapshotState(snap.Stream != nil)
	if err != nil {
		t.Fatal(err)
	}
	if ss := snap.Stream; ss != nil {
		again.Stream.Name, again.Stream.Units, again.Stream.Anoms = ss.Name, ss.Units, ss.Anoms
	}
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("%s re-encodes to %d bytes that differ from the current golden (%d bytes)", name, buf.Len(), len(golden))
	}
}

// TestRestoreRejectsNonADACheckpoints covers what a version-2 file
// can carry besides ADA state, which only the old-form branches of the
// decoder read: a config-section selector other than 1, an engine
// section of another kind, one holding a retained window, and one
// whose copy of the instance disagrees with the detector section's.
func TestRestoreRejectsNonADACheckpoints(t *testing.T) {
	golden, err := os.ReadFile(goldenV2CkptPath)
	if err != nil {
		t.Fatal(err)
	}
	// The config section's engine selector follows Δ, ς and ℓ
	// (varints) and θ, RT and DT (8 bytes each).
	selector := func(v int64) []byte {
		return rewriteSection(t, golden, "CFG.", func(p []byte) []byte {
			off := 0
			for range 3 {
				_, n := binary.Varint(p[off:])
				off += n
			}
			off += 3 * 8
			_, n := binary.Varint(p[off:])
			return slices.Concat(p[:off], binary.AppendVarint(nil, v), p[off+n:])
		})
	}
	if !bytes.Equal(selector(1), golden) {
		t.Fatal("splicing selector 1 changed the golden: the offset misses the selector")
	}
	// The engine section opens with the kind ("ADA", a length and
	// three bytes) and the instance (a varint).
	engine := func(kind string, dInstance int64) []byte {
		return rewriteSection(t, golden, "ENG.", func(p []byte) []byte {
			instance, n := binary.Varint(p[4:])
			return slices.Concat([]byte{byte(len(kind))}, []byte(kind), binary.AppendVarint(nil, instance+dInstance), p[4+n:])
		})
	}
	if !bytes.Equal(engine("ADA", 0), golden) {
		t.Fatal("splicing kind ADA changed the golden: the offset misses the kind")
	}
	for name, raw := range map[string][]byte{
		"algorithm 2":  selector(2),
		"algorithm 0":  selector(0),
		"kind STA":     engine("STA", 0),
		"instance + 1": engine("ADA", 1),
		"instance - 1": engine("ADA", -1),
	} {
		if _, err := Restore(bytes.NewReader(raw)); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: Restore error %v, want ErrBadCheckpoint", name, err)
		}
	}

	// The writer cannot express a retained window any more, so splice
	// one unit ({node 0: 2}, its value one run of no zeros and one
	// literal) into the engine section's trailing empty list and
	// re-checksum the section.
	window := []byte{1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0x40}
	withWindow := rewriteSection(t, golden, "ENG.", func(p []byte) []byte {
		if p[len(p)-1] != 0 {
			t.Fatalf("engine section ends in %#x, want an empty window", p[len(p)-1])
		}
		return append(p[:len(p)-1:len(p)-1], window...)
	})
	if _, err := Restore(bytes.NewReader(withWindow)); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("retained window: Restore error %v, want ErrBadCheckpoint", err)
	}
}

// rewriteSection returns a copy of a checkpoint with the payload of the
// section tagged tag replaced by edit(payload), its length and CRC32
// recomputed (framing: tag[4] | uvarint len | payload | crc32 LE).
func rewriteSection(t *testing.T, raw []byte, tag string, edit func([]byte) []byte) []byte {
	t.Helper()
	const magicLen = 8
	_, n := binary.Uvarint(raw[magicLen:])
	out := append([]byte(nil), raw[:magicLen+n]...)
	for off := magicLen + n; off < len(raw); {
		name := string(raw[off : off+4])
		size, n := binary.Uvarint(raw[off+4:])
		body := raw[off+4+n : off+4+n+int(size)]
		off += 4 + n + int(size) + 4
		if name == tag {
			body = edit(body)
		}
		out = append(out, name...)
		out = binary.AppendUvarint(out, uint64(len(body)))
		out = append(out, body...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	}
	return out
}

var writeGoldenManager = flag.Bool("write-golden-manager", false,
	"write "+goldenManagerDir+"; only for a deliberate, versioned checkpoint format change")

// goldenManagerDir holds a Manager checkpoint in the flat layout, one
// <stream>.ckpt file per stream, written with window 16 over the golden
// workload: stream "warming" mid-warm-up, stream "partial" warm with a
// partial unit. It pins the stream-file bytes, STR. section included.
var goldenManagerDir = goldenDir + "/manager_w16"

// goldenOldManagerDirs hold the same Manager checkpoint in the old
// forms of goldenOldCkptPaths, in the same order, kept byte for byte
// as the old-form reader's test.
var goldenOldManagerDirs = []string{"testdata/manager_w16", "testdata/v2rings/manager_w16", "testdata/v2/manager_w16"}

// goldenManagerFeed returns the golden Manager's detector options and
// each stream's records before and after the checkpoint. Both cuts
// fall in the middle of a unit.
func goldenManagerFeed(t *testing.T) (opts []Option, head, tail map[string][]Record) {
	t.Helper()
	opts, part1, part2 := goldenWorkload(t)
	all := append(append([]Record(nil), part1...), part2...)
	cut := func(units int) int {
		// Half of the records of unit `units`, past its boundary.
		boundary := all[0].Time.Truncate(15 * time.Minute).Add(time.Duration(units) * 15 * time.Minute)
		i := 0
		for i < len(all) && all[i].Time.Before(boundary) {
			i++
		}
		j := i
		for j < len(all) && all[j].Time.Before(boundary.Add(15*time.Minute)) {
			j++
		}
		return (i + j) / 2
	}
	head, tail = map[string][]Record{}, map[string][]Record{}
	for name, units := range map[string]int{"warming": 9, "partial": goldenSplitUnit} {
		n := cut(units)
		head[name], tail[name] = all[:n], all[n:]
	}
	return opts, head, tail
}

// TestGoldenManagerCheckpoint checks that (a) Manager.Checkpoint of the
// golden feed writes the committed stream files byte for byte, (b) a
// Manager restored from them, or from their older forms
// (goldenOldManagerDirs), detects exactly what an uninterrupted one
// does, and (c) each older file re-encodes to its current golden.
func TestGoldenManagerCheckpoint(t *testing.T) {
	opts, head, tail := goldenManagerFeed(t)
	newMgr := func() *Manager {
		m, err := NewManager(WithShards(2), WithDetectorOptions(opts...))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := newMgr()
	for name, recs := range head {
		if _, _, err := m.FeedBatch(name, recs); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := m.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "ckpt-*", "*"+checkpointExt))
	if err != nil || len(files) != len(head) {
		t.Fatalf("stream files %v (err %v), want %d", files, err, len(head))
	}
	if *writeGoldenManager {
		if err := os.MkdirAll(goldenManagerDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range files {
		fresh, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Read(bytes.NewReader(fresh))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join(goldenManagerDir, snap.Stream.Name+checkpointExt)
		if *writeGoldenManager {
			if err := os.WriteFile(golden, fresh, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, want) {
			t.Fatalf("stream %q: Checkpoint wrote %d bytes that differ from %s (%d bytes): the stream-file encoding changed",
				snap.Stream.Name, len(fresh), golden, len(want))
		}
		for _, dir := range goldenOldManagerDirs {
			old := filepath.Join(dir, filepath.Base(golden))
			raw, err := os.ReadFile(old)
			if err != nil {
				t.Fatal(err)
			}
			sameReencoding(t, old, raw, want)
		}
	}

	ref := newMgr()
	want := map[string][]Anomaly{}
	for _, name := range []string{"warming", "partial"} {
		refHead, _, err := ref.FeedBatch(name, head[name])
		if err != nil {
			t.Fatal(err)
		}
		if want[name], _, err = ref.FeedBatch(name, tail[name]); err != nil {
			t.Fatal(err)
		}
		if len(refHead) != 0 && name == "warming" {
			t.Fatalf("stream %q detected during warm-up", name)
		}
		if len(want[name]) == 0 {
			t.Fatalf("stream %q: the uninterrupted Manager detects nothing after the cut; the workload no longer exercises the restore", name)
		}
	}
	for _, dir := range append([]string{goldenManagerDir}, goldenOldManagerDirs...) {
		restored, err := ManagerFromCheckpoint(dir, WithDetectorOptions(opts...))
		if err != nil {
			t.Fatal(err)
		}
		if st := restored.Streams(); len(st) != 2 || st[0].Name != "partial" || !st[0].Warm || st[1].Warm || st[1].PendingWarmup != 9 {
			t.Fatalf("%s: restored statuses %+v, want partial warm and warming 9 units into warm-up", dir, st)
		}
		for _, name := range []string{"warming", "partial"} {
			got, _, err := restored.FeedBatch(name, tail[name])
			if err != nil {
				t.Fatal(err)
			}
			sameAnomalies(t, "golden manager "+dir+" "+name, want[name], got)
		}
	}
}

// TestStatisticOnlyUnderItsRule: the engine keeps only the split-rule
// statistic its rule reads. Under each rule the exported column of
// that statistic is non-zero and the other two are all zero (all three
// under Uniform, which reads none) after Init and steps, after
// restoring goldenRingsCkptPath, whose three columns are populated,
// and after resuming from it.
func TestStatisticOnlyUnderItsRule(t *testing.T) {
	opts, part1, part2 := goldenWorkload(t)
	rings, err := os.ReadFile(goldenRingsCkptPath)
	if err != nil {
		t.Fatal(err)
	}
	nonZero := func(col []float64) bool { return slices.ContainsFunc(col, func(v float64) bool { return v != 0 }) }
	columns := func(st *algo.EngineState) map[SplitRule][]float64 {
		return map[SplitRule][]float64{LastTimeUnit: st.PrevA, LongTermHistory: st.CumA, EWMARule: st.EwmaA}
	}
	check := func(what string, rule SplitRule, det *Tiresias) {
		t.Helper()
		st, err := det.Engine().ExportState()
		if err != nil {
			t.Fatal(err)
		}
		for of, col := range columns(st) {
			if got := nonZero(col); got != (of == rule) {
				t.Errorf("%s: %s exports %s's statistic non-zero: %v, want %v", rule, what, of, got, of == rule)
			}
		}
	}
	for _, rule := range []SplitRule{Uniform, LastTimeUnit, LongTermHistory, EWMARule} {
		det, err := New(append(slices.Clip(opts), WithSplitRule(rule))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := det.Run(context.Background(), NewSliceSource(part1)); err != nil {
			t.Fatal(err)
		}
		check("a fresh run", rule, det)

		snap, err := checkpoint.Read(bytes.NewReader(rings))
		if err != nil {
			t.Fatal(err)
		}
		for of, col := range columns(snap.Engine) {
			if !nonZero(col) {
				t.Fatalf("%s carries no %s statistic to ignore", goldenRingsCkptPath, of)
			}
		}
		snap.Config.Rule = rule
		restored, err := restoreFromSnapshot(snap)
		if err != nil {
			t.Fatal(err)
		}
		check("a restore", rule, restored)
		if _, err := restored.Run(context.Background(), NewSliceSource(part2)); err != nil {
			t.Fatal(err)
		}
		check("a resumed restore", rule, restored)
	}
}

// TestRestoreRejectsSplitRuleChange: the split rule decides which
// statistics the checkpoint carries, so Restore and
// ManagerFromCheckpoint refuse a different rule and accept the one the
// checkpoint was written with.
func TestRestoreRejectsSplitRuleChange(t *testing.T) {
	opts, _, _ := goldenWorkload(t)
	golden, err := os.ReadFile(goldenCkptPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []SplitRule{Uniform, LastTimeUnit, LongTermHistory, EWMARule} {
		_, err := Restore(bytes.NewReader(golden), WithSplitRule(rule))
		if same := rule == LongTermHistory; (err == nil) != same {
			t.Errorf("Restore with %s: error %v, want one only for a rule other than %s", rule, err, LongTermHistory)
		}
		_, err = ManagerFromCheckpoint(goldenManagerDir, WithDetectorOptions(append(slices.Clip(opts), WithSplitRule(rule))...))
		if same := rule == LongTermHistory; (err == nil) != same {
			t.Errorf("ManagerFromCheckpoint with %s: error %v, want one only for a rule other than %s", rule, err, LongTermHistory)
		}
	}
}
