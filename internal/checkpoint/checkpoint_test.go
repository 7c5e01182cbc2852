package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
)

// coldSnapshot builds a minimal non-warm snapshot with a small tree.
func coldSnapshot() *Snapshot {
	tree := hierarchy.New()
	tree.Insert([]string{"v1", "c1"})
	tree.Insert([]string{"v1", "c2"})
	tree.Insert([]string{"v2"})
	return &Snapshot{
		Config: Config{
			Delta:     15 * time.Minute,
			WindowLen: 96,
			Theta:     10,
			RT:        2.8, DT: 8,
			Algorithm: 1, Rule: 3, RuleAlpha: 0.4,
			RefLevels: 2,
			HWAlpha:   0.4, HWBeta: 0.05, HWGamma: 0.3,
			AutoSeason: true, SeasonXi: 0.76,
			MaxGap: 100000,
		},
		Tree: tree,
	}
}

func TestColdSnapshotRoundTrip(t *testing.T) {
	snap := coldSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Warm || got.Engine != nil || got.Stream != nil {
		t.Fatal("cold snapshot decoded as warm")
	}
	if !reflect.DeepEqual(snapConfigComparable(got.Config), snapConfigComparable(snap.Config)) {
		t.Fatalf("config mismatch:\n got %+v\nwant %+v", got.Config, snap.Config)
	}
	if got.Tree.Len() != snap.Tree.Len() {
		t.Fatalf("tree has %d nodes, want %d", got.Tree.Len(), snap.Tree.Len())
	}
	for _, n := range snap.Tree.Nodes() {
		g := got.Tree.Node(n.ID)
		if g.Key != n.Key || g.Depth != n.Depth {
			t.Fatalf("node %d decoded as %q, want %q", n.ID, g.Key, n.Key)
		}
	}
	if err := got.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// snapConfigComparable strips slice fields (nil vs empty) so the
// struct compares with ==.
func snapConfigComparable(c Config) Config {
	c.SeasonPeriods = nil
	return c
}

// TestUnknownSectionSkipped verifies forward compatibility: a reader
// must skip sections with unknown tags (future writers of the same
// version may append new sections).
func TestUnknownSectionSkipped(t *testing.T) {
	snap := coldSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Rebuild the stream with an extra unknown section spliced in
	// before END (the last section: tag + len 0 + crc32(empty)).
	endLen := 4 + 1 + 4
	var spliced bytes.Buffer
	spliced.Write(raw[:len(raw)-endLen])
	p := &payload{}
	p.putString("future data")
	if err := writeSection(&spliced, "XXX.", p); err != nil {
		t.Fatal(err)
	}
	spliced.Write(raw[len(raw)-endLen:])
	got, err := Read(&spliced)
	if err != nil {
		t.Fatalf("unknown section must be skipped, got %v", err)
	}
	if got.Tree.Len() != snap.Tree.Len() {
		t.Fatal("payload around unknown section lost")
	}
}

func TestDuplicateSectionRejected(t *testing.T) {
	snap := coldSnapshot()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	endLen := 4 + 1 + 4
	var spliced bytes.Buffer
	spliced.Write(raw[:len(raw)-endLen])
	if err := writeSection(&spliced, tagConfig, encodeConfig(&snap.Config)); err != nil {
		t.Fatal(err)
	}
	spliced.Write(raw[len(raw)-endLen:])
	if _, err := Read(&spliced); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("duplicate section: err = %v, want ErrBadCheckpoint", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTACKPT\x01"))); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("bad magic: err = %v, want ErrBadCheckpoint", err)
	}
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write(binary.AppendUvarint(nil, Version+7))
	if _, err := Read(&buf); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("future version: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestMissingMandatorySection drops the detector section and expects
// rejection.
func TestMissingMandatorySection(t *testing.T) {
	snap := coldSnapshot()
	var buf bytes.Buffer
	var hdr payload
	hdr.buf = append(hdr.buf, magic...)
	hdr.putUvarint(Version)
	buf.Write(hdr.buf)
	if err := writeSection(&buf, tagConfig, encodeConfig(&snap.Config)); err != nil {
		t.Fatal(err)
	}
	if err := writeSection(&buf, tagTree, encodeTree(snap.Tree)); err != nil {
		t.Fatal(err)
	}
	if err := writeSection(&buf, tagEnd, &payload{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("missing DET section: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestStreamSectionRoundTrip exercises the Manager per-stream extras,
// including a partial current unit and a warmup buffer.
func TestStreamSectionRoundTrip(t *testing.T) {
	snap := coldSnapshot()
	k1 := snap.Tree.Node(2).Key // v1/c1
	k2 := snap.Tree.Node(4).Key // v2
	snap.Stream = &StreamState{
		Name: "alpha",
		WarmBuf: []algo.Timeunit{
			{k1: 3, k2: 1.5},
			{k2: 7},
		},
		First:     time.Date(2010, 5, 3, 0, 0, 0, 0, time.UTC),
		FirstSeen: true,
		Dirty:     true,
		Units:     11,
		Anoms:     2,
	}
	snap.Stream.Windower.Delta = 15 * time.Minute
	snap.Stream.Windower.Start = time.Date(2010, 5, 3, 2, 45, 0, 0, time.UTC)
	snap.Stream.Windower.Began = true
	snap.Stream.Windower.MaxGap = 500
	snap.Stream.Windower.CurIDs = []int32{2, 4}
	snap.Stream.Windower.CurVals = []float64{2, 9}

	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ss := got.Stream
	if ss == nil {
		t.Fatal("stream section lost")
	}
	if ss.Name != "alpha" || !ss.FirstSeen || !ss.Dirty || ss.Units != 11 || ss.Anoms != 2 {
		t.Fatalf("stream metadata mismatch: %+v", ss)
	}
	if !ss.First.Equal(snap.Stream.First) || !ss.Windower.Start.Equal(snap.Stream.Windower.Start) {
		t.Fatal("stream clocks mismatch")
	}
	if len(ss.WarmBuf) != 2 || ss.WarmBuf[0][k1] != 3 || ss.WarmBuf[0][k2] != 1.5 || ss.WarmBuf[1][k2] != 7 {
		t.Fatalf("warm buffer mismatch: %+v", ss.WarmBuf)
	}
	if len(ss.Windower.CurIDs) != 2 || ss.Windower.CurVals[1] != 9 {
		t.Fatalf("current unit mismatch: %+v", ss.Windower)
	}
}

// TestEngineSectionRejectsRetainedWindow: the engine section's trailing
// retained-window list (once STA state) is written empty, and a
// non-empty one is refused rather than silently dropped.
func TestEngineSectionRejectsRetainedWindow(t *testing.T) {
	p := encodeEngine(&algo.EngineState{Kind: "ADA"})
	if last := p.buf[len(p.buf)-1]; last != 0 {
		t.Fatalf("engine section ends in %#x, want an empty window (0)", last)
	}
	if _, err := decodeEngine(p.buf); err != nil {
		t.Fatalf("empty window: %v", err)
	}
	p.buf = p.buf[:len(p.buf)-1]
	p.putLen(1)
	p.putInt32s([]int32{0})
	p.putFloats([]float64{2})
	if _, err := decodeEngine(p.buf); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("one-unit window: err = %v, want ErrBadCheckpoint", err)
	}
}
