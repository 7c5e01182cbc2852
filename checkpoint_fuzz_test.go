package tiresias

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"testing"

	"tiresias/internal/checkpoint"
)

// FuzzImportState holds restore-then-resume to its contract on edited
// engine states. The fuzz input picks the golden checkpoint
// (goldenCkptPath) or its version-1 form (goldenV1CkptPath, whose
// series carry full forecast rings), and its bytes are a list of edits
// to the engine state, one opcode byte each followed by its argument
// bytes: flip an InSHHH or Ishh entry, overwrite a float of a per-node
// array, of a series' actual ring or a series' held forecast, drop a
// series or a reference, move RefCovered or the instance. The edited
// snapshot is written with checkpoint.Write and read back by Restore,
// which must either refuse it with ErrBadCheckpoint or return a
// detector that runs the golden workload's second part without
// panicking. With no edit it must resume to exactly the anomalies of
// the uninterrupted run.
func FuzzImportState(f *testing.F) {
	var files [2][]byte
	for i, name := range []string{goldenCkptPath, goldenV1CkptPath} {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		files[i] = raw
	}
	opts, part1, part2 := goldenWorkload(f)
	ref, err := New(opts...)
	if err != nil {
		f.Fatal(err)
	}
	res, err := ref.Run(context.Background(), NewSliceSource(append(append([]Record(nil), part1...), part2...)))
	if err != nil {
		f.Fatal(err)
	}
	var want []Anomaly
	for _, a := range res.Anomalies {
		if !a.Time.Before(part2[0].Time) {
			want = append(want, a)
		}
	}
	f.Add(false, []byte{})
	f.Add(false, []byte{0, 3, 1, 0})                               // flip InSHHH[3] and Ishh[0]
	f.Add(false, []byte{2, 1, 7, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})    // RawA[7] = +Inf
	f.Add(false, []byte{3, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f}) // a NaN in series 0's actual ring
	f.Add(false, []byte{4, 0, 5, 1})                               // drop series 0 and reference 1
	f.Add(false, []byte{6, 0xfe, 7, 0x80})                         // RefCovered -= 2, instance -= 128
	f.Add(true, []byte{})
	f.Add(true, []byte{8, 0, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})                    // series 0's forecast = NaN
	f.Add(false, []byte{8, 1, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})                   // series 1's forecast = -Inf
	f.Add(true, []byte{8, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f})                    // series 2's forecast = +Inf
	f.Add(false, []byte{8, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f}) // series 3's forecast = MaxFloat64
	f.Fuzz(func(t *testing.T, v1 bool, edits []byte) {
		golden := files[0]
		if v1 {
			golden = files[1]
		}
		snap, err := checkpoint.Read(bytes.NewReader(golden))
		if err != nil {
			t.Fatal(err)
		}
		e := snap.Engine
		next := func() int {
			if len(edits) == 0 {
				return 0
			}
			b := edits[0]
			edits = edits[1:]
			return int(b)
		}
		float := func() float64 {
			var b [8]byte
			for i := range b {
				b[i] = byte(next())
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		edited := len(edits) > 0
		for len(edits) > 0 {
			switch op := next() % 9; op {
			case 0, 1: // flip an entry of InSHHH (0) or Ishh (1)
				flags, _ := e.Columns()
				if col := flags[op]; len(*col) > 0 {
					i := next() % len(*col)
					(*col)[i] = !(*col)[i]
				}
			case 2: // overwrite an entry of a per-node float array
				_, floats := e.Columns()
				fs := floats[next()%len(floats)]
				if i, v := next(), float(); len(*fs) > 0 {
					(*fs)[i%len(*fs)] = v
				}
			case 3: // overwrite a sample of a series' actual ring
				if len(e.Series) > 0 {
					vals := e.Series[next()%len(e.Series)].Actual.Values
					if i, v := next(), float(); len(vals) > 0 {
						vals[i%len(vals)] = v
					}
				}
			case 4: // drop a series
				if len(e.Series) > 0 {
					i := next() % len(e.Series)
					e.Series = append(e.Series[:i], e.Series[i+1:]...)
				}
			case 5: // drop a reference
				if len(e.Refs) > 0 {
					i := next() % len(e.Refs)
					e.Refs = append(e.Refs[:i], e.Refs[i+1:]...)
				}
			case 6:
				e.RefCovered += int(int8(next()))
			case 7: // the instance, which the engine reads from DET.;
				// the warm-up length moves the other way, so the
				// detector clock, and the records it accepts, stay put.
				d := int(int8(next()))
				snap.Instance += d
				snap.WarmLen -= d
			case 8: // overwrite a series' held forecast
				if len(e.Series) > 0 {
					e.Series[next()%len(e.Series)].Forecast = float()
				}
			}
		}
		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, snap); err != nil {
			t.Fatal(err)
		}
		det, err := Restore(&buf)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				t.Fatalf("Restore refused the edited state with %v, which does not wrap ErrBadCheckpoint", err)
			}
			return
		}
		res, err := det.Run(context.Background(), NewSliceSource(part2))
		if err != nil {
			t.Fatal(err)
		}
		if !edited {
			sameAnomalies(t, "unedited resume", want, res.Anomalies)
		}
	})
}
