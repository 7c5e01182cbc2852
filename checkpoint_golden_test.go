package tiresias

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"os"
	"testing"
	"time"

	"tiresias/internal/checkpoint"
	"tiresias/internal/gen"
)

var writeGoldenCkpt = flag.Bool("write-golden-ckpt", false,
	"rewrite "+goldenCkptPath+"; only for a deliberate, versioned checkpoint format change")

// goldenCkptPath is a small warm ADA checkpoint (window 16, a 3×2×2
// hierarchy) committed so a format or engine change that stops old
// checkpoints from restoring, or from resuming bit-identically, fails
// here instead of in production.
const goldenCkptPath = "testdata/ada_w16.ckpt"

// goldenSplitUnit is the timeunit boundary the golden checkpoint was
// taken at: part one (units before it) was Run, then snapshotted.
const goldenSplitUnit = 30

// goldenWorkload returns the golden run's options and its records split
// at goldenSplitUnit. An injected burst after the split gives the
// resumed half real detections to compare.
func goldenWorkload(t *testing.T) (opts []Option, part1, part2 []Record) {
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
// and (b) the restored detector's next units detect exactly what an
// uninterrupted run detects.
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
	restored, err := Restore(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	res, err := restored.Run(context.Background(), NewSliceSource(part2))
	if err != nil {
		t.Fatal(err)
	}
	sameAnomalies(t, "golden resume", want, res.Anomalies)
}

// TestRestoreRejectsNonADACheckpoints covers the engine selectors a
// checkpoint can carry besides ADA's: a Config.Algorithm other than 1,
// an engine section of another kind, or one holding a retained window.
func TestRestoreRejectsNonADACheckpoints(t *testing.T) {
	golden, err := os.ReadFile(goldenCkptPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*checkpoint.Snapshot)
	}{
		{"algorithm 2", func(s *checkpoint.Snapshot) { s.Config.Algorithm = 2 }},
		{"algorithm 0", func(s *checkpoint.Snapshot) { s.Config.Algorithm = 0 }},
		{"kind STA", func(s *checkpoint.Snapshot) { s.Engine.Kind = "STA" }},
	} {
		snap, err := checkpoint.Read(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		tc.mutate(snap)
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(&buf); !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: Restore error %v, want ErrBadCheckpoint", tc.name, err)
		}
	}

	// The writer cannot express a retained window any more, so splice
	// one unit ({node 0: 2}) into the engine section's trailing empty
	// list and re-checksum the section.
	window := []byte{1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0x40}
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
