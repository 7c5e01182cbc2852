package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tiresias/internal/algo"
)

// goldens are the committed checkpoint files (written by the root
// package's golden tests): an ADA detector and two Manager stream
// files, one mid-warm-up and one mid-unit, each in the current format
// and in the old forms the decoder upgrades, oldest first: version 1,
// version 2 as written while every series kept a forecast ring of ℓ
// samples, and version 2 as last written.
var goldens = func() (out []golden) {
	for _, name := range []string{"ada_w16.ckpt", filepath.Join("manager_w16", "warming.ckpt"), filepath.Join("manager_w16", "partial.ckpt")} {
		out = append(out, golden{
			current: filepath.Join(fmt.Sprintf("v%d", Version), name),
			old:     []string{name, filepath.Join("v2rings", name), filepath.Join("v2", name)},
		})
	}
	return out
}()

// golden is one committed checkpoint: its current-format file and its
// old forms, each a path under the repository's testdata.
type golden struct {
	current string
	old     []string
}

// reencode writes snap and reads the bytes back, failing the test when
// an accepted snapshot does not survive its own encoding.
func reencode(t testing.TB, snap *Snapshot) ([]byte, *Snapshot) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, snap); err != nil {
		t.Fatalf("Write of an accepted checkpoint: %v", err)
	}
	again, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read of a re-encoded checkpoint: %v", err)
	}
	return buf.Bytes(), again
}

func readGolden(f *testing.F, name string) []byte {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzCheckpointRead holds the decoder to its contract on arbitrary
// bytes: Read never panics, and whatever it accepts re-encodes to bytes
// that Read accepts again and that re-encode identically. Only the
// first pass may normalize: an old format version, unknown sections,
// non-canonical varints, and a version-1 or -2 series' forecast ring,
// which keeps only its newest sample (zero for an empty ring). The
// seeds are the committed goldens of every version: a current file
// must round-trip byte for byte, and each old form must re-encode to
// it once the statistic columns of the split rules other than its own
// are zeroed, as an engine loads it (the goldens run
// Long-Term-History).
func FuzzCheckpointRead(f *testing.F) {
	current := make([][]byte, len(goldens))
	for i, g := range goldens {
		current[i] = readGolden(f, g.current)
		for _, name := range g.old {
			f.Add(readGolden(f, name))
		}
	}
	for i, g := range goldens {
		f.Add(current[i])
		for _, name := range append(g.old, g.current) {
			snap, err := Read(bytes.NewReader(readGolden(f, name)))
			if err != nil {
				f.Fatalf("golden %s: %v", name, err)
			}
			if e := snap.Engine; e != nil {
				for rule, col := range map[algo.SplitRule][]float64{algo.LastTimeUnit: e.PrevA, algo.LongTermHistory: e.CumA, algo.EWMARule: e.EwmaA} {
					if rule != snap.Config.Rule {
						clear(col)
					}
				}
			}
			got, _ := reencode(f, snap)
			if !bytes.Equal(got, current[i]) {
				f.Fatalf("golden %s re-encodes to %d bytes that differ from the %d of %s", name, len(got), len(current[i]), g.current)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, again := reencode(t, snap)
		second, _ := reencode(t, again)
		if !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable: %d bytes, then %d", len(first), len(second))
		}
	})
}

// putDense writes a float slice the way format version 1 did: the
// length, then eight bytes per element.
func putDense(p *payload, vs []float64) {
	p.putUvarint(uint64(len(vs)))
	for _, v := range vs {
		p.putF64(v)
	}
}

// floatsOf builds fuzz input from float values, eight bytes each.
func floatsOf(vs ...float64) []byte {
	var out []byte
	for _, v := range vs {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzFloatRuns is the differential test of the float-slice codec:
// arbitrary bytes, taken eight at a time as float bits, must come back
// bit-identically through the run coding and through the version-1
// dense coding, and a slice is refused only when it exceeds the
// caller's bound. The same bytes, read as a run-coded payload, must
// never panic the decoder, and anything it accepts must re-encode to
// the same bits in no more bytes than it consumed (only overlong
// varints normalize; TestFloatRunsRejectNonCanonical covers the run
// structure).
func FuzzFloatRuns(f *testing.F) {
	negZero := math.Copysign(0, -1)
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	f.Add([]byte{})
	f.Add(floatsOf(0, 0, 0, 0, 0, 0))
	f.Add(floatsOf(1, -2.5, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64))
	f.Add(floatsOf(0, 1, 0, 2, 0, 3, 0))
	f.Add(floatsOf(1, 0, 2, 0, 3, 0, 4))
	f.Add(floatsOf(negZero, 0, negZero, nan, 0, math.NaN(), 0, 0))
	f.Add(floatsOf(0, 0, 7, 8, 9, 0, 0, 0, 10))
	f.Add([]byte{3, 1, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		vs := make([]float64, len(data)/8)
		for i := range vs {
			vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var runs, dense payload
		runs.putFloats(vs)
		putDense(&dense, vs)
		for _, c := range []struct {
			name string
			buf  []byte
			runs bool
		}{{"runs", runs.buf, true}, {"dense", dense.buf, false}} {
			r := &reader{buf: c.buf, runs: c.runs}
			got := r.getFloats(len(vs))
			if err := r.done(c.name); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(got) != len(vs) {
				t.Fatalf("%s: %d floats, want %d", c.name, len(got), len(vs))
			}
			for i := range vs {
				if math.Float64bits(got[i]) != math.Float64bits(vs[i]) {
					t.Fatalf("%s: float %d has bits %#x, want %#x", c.name, i, math.Float64bits(got[i]), math.Float64bits(vs[i]))
				}
			}
			if len(vs) > 0 {
				short := &reader{buf: c.buf, runs: c.runs}
				if short.getFloats(len(vs) - 1); short.err == nil {
					t.Fatalf("%s: a %d-float slice passed a bound of %d", c.name, len(vs), len(vs)-1)
				}
			}
		}

		r := &reader{buf: data, runs: true}
		got := r.getFloats(1 << 16)
		if r.err != nil {
			return
		}
		var again payload
		again.putFloats(got)
		back := (&reader{buf: again.buf, runs: true}).getFloats(len(got))
		if len(again.buf) > r.off || len(back) != len(got) {
			t.Fatalf("accepted run coding % x re-encodes to % x", data[:r.off], again.buf)
		}
		for i := range got {
			if math.Float64bits(back[i]) != math.Float64bits(got[i]) {
				t.Fatalf("accepted run coding % x: float %d re-decodes as %#x, want %#x", data[:r.off], i, math.Float64bits(back[i]), math.Float64bits(got[i]))
			}
		}
	})
}

// TestFloatRunsRejectNonCanonical: the run coding has one form per
// slice, so a decoder that accepted another would let two files with
// the same state differ. Each payload below is malformed or spells a
// slice otherwise than putFloats does.
func TestFloatRunsRejectNonCanonical(t *testing.T) {
	one := floatsOf(1)
	for _, c := range []struct {
		name string
		buf  []byte
	}{
		{"empty run mid-slice", append([]byte{3, 1, 0, 0, 1}, append(one, 1, 0)...)},
		{"literal run without zeros", append(append(append([]byte{3, 1, 1}, one...), 0, 1), one...)},
		{"zero literal", append(append([]byte{3, 1, 2}, one...), floatsOf(0)...)},
		{"zero literal after zeros", append([]byte{1, 0, 1}, floatsOf(0)...)},
		{"run past the length", append(append([]byte{3, 1, 1}, one...), 2, 0)},
		{"runs short of the length", append([]byte{3, 1, 1}, one...)},
	} {
		r := &reader{buf: c.buf, runs: true}
		if r.getFloats(3); r.err == nil {
			t.Errorf("%s: % x accepted", c.name, c.buf)
		}
	}
	canonical := append(append([]byte{3, 1, 1}, one...), 1, 0)
	var p payload
	p.putFloats([]float64{0, 1, 0})
	if !bytes.Equal(p.buf, canonical) {
		t.Fatalf("[0, 1, 0] encodes as % x, want % x", p.buf, canonical)
	}
}
