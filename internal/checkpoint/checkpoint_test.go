package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/hierarchy"
)

// coldSnapshot builds a minimal non-warm snapshot with a small tree.
func coldSnapshot() *Snapshot {
	tree := hierarchy.New()
	tree.Intern([]string{"v1", "c1"})
	tree.Intern([]string{"v1", "c2"})
	tree.Intern([]string{"v2"})
	return &Snapshot{
		Config: Config{
			Delta:      15 * time.Minute,
			WindowLen:  96,
			Theta:      10,
			Thresholds: detect.Thresholds{RT: 2.8, DT: 8},
			Rule:       algo.LongTermHistory, RuleAlpha: 0.4,
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
	// Every field holds a distinct non-zero value, so a codec that
	// drops or swaps a field fails the round trip.
	snap.Config = Config{
		Delta:         15 * time.Minute,
		Increment:     5 * time.Minute,
		WindowLen:     96,
		Theta:         10,
		Thresholds:    detect.Thresholds{RT: 2.8, DT: 8},
		Rule:          algo.LongTermHistory,
		RuleAlpha:     0.35,
		RefLevels:     2,
		Lambda:        6,
		Eta:           4,
		HWAlpha:       0.4,
		HWBeta:        0.05,
		HWGamma:       0.3,
		AutoSeason:    true,
		SeasonPeriods: []int{24, 168},
		SeasonXi:      0.76,
		MaxGap:        100000,
	}
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
	if !reflect.DeepEqual(got.Config, snap.Config) {
		t.Fatalf("config mismatch:\n got %+v\nwant %+v", got.Config, snap.Config)
	}
	if got.Tree.Len() != snap.Tree.Len() {
		t.Fatalf("tree has %d nodes, want %d", got.Tree.Len(), snap.Tree.Len())
	}
	for id := 0; id < snap.Tree.Len(); id++ {
		if g, w := got.Tree.Key(id), snap.Tree.Key(id); g != w || got.Tree.Depth(id) != snap.Tree.Depth(id) {
			t.Fatalf("node %d decoded as %q, want %q", id, g, w)
		}
	}
	if err := got.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
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
	snap.Stream = &StreamState{
		Name: "alpha",
		WarmBuf: []*algo.DenseUnit{
			algo.PairsOf([]int32{2, 4}, []float64{3, 1.5}), // v1/c1, v2
			algo.PairsOf([]int32{4}, []float64{7}),
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
	for i, u := range ss.WarmBuf {
		want := snap.Stream.WarmBuf[i]
		if !reflect.DeepEqual(u.IDs(), want.IDs()) || !reflect.DeepEqual(u.Values(), want.Values()) {
			t.Fatalf("warm unit %d = %v %v, want %v %v", i, u.IDs(), u.Values(), want.IDs(), want.Values())
		}
	}
	if len(ss.WarmBuf) != 2 {
		t.Fatalf("warm buffer holds %d units, want 2", len(ss.WarmBuf))
	}
	if len(ss.Windower.CurIDs) != 2 || ss.Windower.CurVals[1] != 9 {
		t.Fatalf("current unit mismatch: %+v", ss.Windower)
	}
}

// TestEngineSectionRejectsRetainedWindow: versions 1 and 2 close the
// engine section with a retained-window list (once STA state) that was
// always written empty, and their branch of the decoder refuses a
// non-empty one rather than silently dropping it.
func TestEngineSectionRejectsRetainedWindow(t *testing.T) {
	snap := coldSnapshot()
	// An empty version-2 engine section: kind, instance, the exported
	// columns, no series, no references, RefCovered, then the list.
	p := &payload{}
	p.putString("ADA")
	p.putInt(snap.Instance)
	flags, floats := (&algo.EngineState{}).Columns()
	for range flags {
		p.putBools(nil)
	}
	for range floats {
		p.putFloats(nil)
	}
	p.putLen(0)
	p.putLen(0)
	p.putInt(0)
	if _, err := decodeEngine(append(p.buf, 0), 2, snap); err != nil {
		t.Fatalf("empty window: %v", err)
	}
	p.putLen(1)
	p.putInt32s([]int32{0})
	p.putFloats([]float64{2})
	if _, err := decodeEngine(p.buf, 2, snap); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("one-unit window: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestEngineSectionHoldsOnlyReadState: a version-3 engine section is
// the exported columns, the series, each reference as its ID and ring
// alone, and RefCovered. No engine kind or instance precedes the
// columns, no model follows a reference ring, and no retained-window
// list closes the section.
func TestEngineSectionHoldsOnlyReadState(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", fmt.Sprintf("v%d", Version), "ada_w16.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	e := snap.Engine
	if len(e.Series) == 0 || len(e.Refs) == 0 {
		t.Fatalf("%d series, %d references: the check is vacuous", len(e.Series), len(e.Refs))
	}
	got := encodeEngine(e).buf

	var cols, refs, tail payload
	flags, floats := e.Columns()
	for _, col := range flags {
		cols.putBools(*col)
	}
	for _, col := range floats {
		cols.putFloats(*col)
	}
	refs.putLen(len(e.Refs))
	for _, rs := range e.Refs {
		refs.putInt(rs.ID)
		putRing(&refs, rs.Ring)
	}
	tail.putInt(e.RefCovered)
	// The series, from the same section with no reference.
	noRefs := *e
	noRefs.Refs = nil
	series := encodeEngine(&noRefs).buf
	if !bytes.HasPrefix(series, cols.buf) {
		t.Fatal("the engine section does not open with its columns")
	}
	series = series[len(cols.buf) : len(series)-1-len(tail.buf)]
	if want := slices.Concat(cols.buf, series, refs.buf, tail.buf); !bytes.Equal(got, want) {
		t.Fatalf("engine section of %d bytes, want the %d of columns, series, (ID, ring) references and RefCovered", len(got), len(want))
	}
}

// zeroRunBombSeed is the committed FuzzCheckpointRead seed holding the
// checkpoint zeroRunBomb builds.
var zeroRunBombSeed = filepath.Join("testdata", "fuzz", "FuzzCheckpointRead", "zero-run-bomb")

// zeroRunBomb returns a checkpoint whose engine section, a few bytes
// long, claims a 2^28-float zero run for the per-node weights of a
// five-node hierarchy.
func zeroRunBomb(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, coldSnapshot()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	eng := &payload{}
	eng.putBools(nil)
	eng.putBools(nil)
	eng.putUvarint(1 << 28) // Weight: 2^28 floats,
	eng.putUvarint(1 << 28) // all of them zeros,
	eng.putUvarint(0)       // and no literal.
	if len(eng.buf) >= 64 {
		t.Fatalf("engine section is %d bytes, want under 64", len(eng.buf))
	}
	endLen := 4 + 1 + 4
	var out bytes.Buffer
	out.Write(raw[:len(raw)-endLen])
	if err := writeSection(&out, tagEngine, eng); err != nil {
		t.Fatal(err)
	}
	out.Write(raw[len(raw)-endLen:])
	return out.Bytes()
}

// TestZeroRunBombRejected: a run-coded float slice is bounded by the
// structure it mirrors, not by its bytes, so a tiny engine section
// claiming a huge zero run fails fast instead of allocating it.
func TestZeroRunBombRejected(t *testing.T) {
	bomb := zeroRunBomb(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(bomb))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("err = %v, want ErrBadCheckpoint", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("Read allocated %d bytes refusing a %d-byte checkpoint, want under 1 MiB", d, len(bomb))
	}
	seed, err := os.ReadFile(zeroRunBombSeed)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%+q)\n", bomb); string(seed) != want {
		t.Fatalf("%s is stale; it should read:\n%s", zeroRunBombSeed, want)
	}
}

// TestEngineSectionNeedsItsBounds: the engine section is decoded
// against the configuration, hierarchy and detector sections, so it
// must follow them.
func TestEngineSectionNeedsItsBounds(t *testing.T) {
	snap := coldSnapshot()
	var buf bytes.Buffer
	var hdr payload
	hdr.buf = append(hdr.buf, magic...)
	hdr.putUvarint(Version)
	buf.Write(hdr.buf)
	for _, s := range []struct {
		tag string
		p   *payload
	}{
		{tagConfig, encodeConfig(&snap.Config)},
		{tagTree, encodeTree(snap.Tree)},
		{tagEngine, encodeEngine(&algo.EngineState{})},
		{tagDetector, encodeDetector(snap)},
		{tagEnd, &payload{}},
	} {
		if err := writeSection(&buf, s.tag, s.p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Read(&buf); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("engine before detector: err = %v, want ErrBadCheckpoint", err)
	}
}

// TestTreeDecodeMatchesPathReplay pins the hierarchy decode, which
// appends each node under its parent ID, to a replay of every node's
// full path through Intern: a valid tree with the same IDs, keys and
// depths.
func TestTreeDecodeMatchesPathReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree := hierarchy.New()
	for i := 0; i < 400; i++ {
		path := make([]string, rng.Intn(5)+1)
		for d := range path {
			path[d] = fmt.Sprintf("n%d", rng.Intn(6))
		}
		tree.Intern(path)
	}
	got, err := decodeTree(encodeTree(tree).buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	want := hierarchy.New()
	for id := 0; id < tree.Len(); id++ {
		want.Intern(tree.Key(id).Path())
	}
	if got.Len() != want.Len() {
		t.Fatalf("decoded %d nodes, want %d", got.Len(), want.Len())
	}
	for id := 0; id < want.Len(); id++ {
		if got.Key(id) != want.Key(id) || got.Depth(id) != want.Depth(id) {
			t.Fatalf("node %d decoded as %q (depth %d), want %q (depth %d)", id, got.Key(id), got.Depth(id), want.Key(id), want.Depth(id))
		}
	}

	// A node repeated under the same parent is refused.
	dup := &payload{}
	dup.putInt(3)
	for range 2 {
		dup.putInt(0)
		dup.putString("a")
	}
	if _, err := decodeTree(dup.buf); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("duplicate node: err = %v, want ErrBadCheckpoint", err)
	}
	// So is a label no path could have interned.
	for _, label := range []string{"", "a\x1fb"} {
		bad := &payload{}
		bad.putInt(2)
		bad.putInt(0)
		bad.putString(label)
		if _, err := decodeTree(bad.buf); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("label %q: err = %v, want ErrBadCheckpoint", label, err)
		}
	}
}

// BenchmarkDecodeTree decodes the hierarchy section of a 12k-node,
// four-level tree, the shape of a wide served stream.
func BenchmarkDecodeTree(b *testing.B) {
	tree := hierarchy.New()
	for i := 0; i < 4; i++ {
		for j := 0; j < 12; j++ {
			for k := 0; k < 15; k++ {
				for l := 0; l < 16; l++ {
					tree.Intern([]string{fmt.Sprintf("sho%d", i), fmt.Sprintf("vho%d", j), fmt.Sprintf("io%d", k), fmt.Sprintf("co%d", l)})
				}
			}
		}
	}
	buf := encodeTree(tree).buf
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeTree(buf); err != nil {
			b.Fatal(err)
		}
	}
}
