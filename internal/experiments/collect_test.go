package experiments

import (
	"testing"
	"time"

	"tiresias/internal/stream"
)

func TestCollect(t *testing.T) {
	t0 := time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC)
	rec := func(offset time.Duration, path ...string) stream.Record {
		return stream.Record{Path: path, Time: t0.Add(offset)}
	}
	src := stream.NewSliceSource([]stream.Record{
		rec(1*time.Minute, "a"),
		rec(16*time.Minute, "a"),
		rec(17*time.Minute, "b"),
		rec(31*time.Minute, "a"),
	})
	w, err := Collect(src, 15*time.Minute, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Start.Equal(t0) {
		t.Fatalf("start = %v, want %v", w.Start, t0)
	}
	units := w.Units
	if len(units) != 5 {
		t.Fatalf("units = %d, want 3 collected + 2 padding", len(units))
	}
	if units[0].Total() != 1 || units[1].Total() != 2 || units[2].Total() != 1 ||
		units[3].Len() != 0 || units[4].Len() != 0 {
		t.Fatalf("unit totals = %v %v %v %v %v", units[0].Total(), units[1].Total(),
			units[2].Total(), units[3].Total(), units[4].Total())
	}
	// IDs follow record first sight: a=1, then b=2.
	if a, b := w.Tree.Lookup("a"), w.Tree.Lookup("b"); a != 1 || b != 2 {
		t.Fatalf("IDs a=%d b=%d, want 1 2", a, b)
	}
	if got := units[1].IDs(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("unit 1 IDs = %v, want [1 2]", got)
	}
}

func TestCollectEmpty(t *testing.T) {
	w, err := Collect(stream.NewSliceSource(nil), time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Units) != 0 || w.Tree.Len() != 1 {
		t.Fatalf("units = %d, nodes = %d, want 0 and the root", len(w.Units), w.Tree.Len())
	}
}
