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
	units, first, err := Collect(src, 15*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Equal(t0) {
		t.Fatalf("first = %v, want %v", first, t0)
	}
	if len(units) != 3 {
		t.Fatalf("units = %d, want 3", len(units))
	}
	if units[0].Total() != 1 || units[1].Total() != 2 || units[2].Total() != 1 {
		t.Fatalf("unit totals = %v %v %v", units[0].Total(), units[1].Total(), units[2].Total())
	}
}

func TestCollectEmpty(t *testing.T) {
	units, _, err := Collect(stream.NewSliceSource(nil), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 0 {
		t.Fatalf("units = %d, want 0", len(units))
	}
}
