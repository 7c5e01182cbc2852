package stream

import (
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"tiresias/internal/hierarchy"
)

func t0() time.Time {
	return time.Date(2010, 5, 1, 0, 0, 0, 0, time.UTC)
}

func rec(offset time.Duration, path ...string) Record {
	return Record{Path: path, Time: t0().Add(offset)}
}

func TestSliceSourceSortsByTime(t *testing.T) {
	src := NewSliceSource([]Record{
		rec(2*time.Minute, "b"),
		rec(1*time.Minute, "a"),
	})
	r1, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Path[0] != "a" {
		t.Fatalf("first record = %v, want a", r1.Path)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestJSONLSourceRoundTrip(t *testing.T) {
	in := `{"path":["tv","no-service"],"time":"2010-05-01T12:00:00Z"}

{"path":["net"],"time":"2010-05-01T12:05:00Z"}
`
	src := NewJSONLSource(strings.NewReader(in))
	r1, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r1.Key() != hierarchy.KeyOf([]string{"tv", "no-service"}) {
		t.Fatalf("key = %v", r1.Key())
	}
	r2, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Path[0] != "net" {
		t.Fatalf("second = %v", r2.Path)
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestJSONLSourceBadLine(t *testing.T) {
	src := NewJSONLSource(strings.NewReader("{not json}\n"))
	if _, err := src.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want parse error", err)
	}
}

func TestCSVishSourceRoundTrip(t *testing.T) {
	r := rec(30*time.Second, "v1", "io2", "co3")
	line := MarshalCSVish(r)
	src := NewCSVishSource(strings.NewReader("# comment\n" + line + "\n"))
	got, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Key() != r.Key() || !got.Time.Equal(r.Time) {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestCSVishSourceErrors(t *testing.T) {
	if _, err := NewCSVishSource(strings.NewReader("nocomma\n")).Next(); err == nil {
		t.Fatal("missing comma must error")
	}
	if _, err := NewCSVishSource(strings.NewReader("notatime,a/b\n")).Next(); err == nil {
		t.Fatal("bad time must error")
	}
	// A path component that is empty or holds the Key separator cannot
	// name a node; the error names the line.
	for _, path := range []string{"", "a//b", "a/", "/a", "a\x1fb/c"} {
		in := "2012-06-18T10:00:00Z,ok\n\n2012-06-18T10:00:00Z," + path + "\n"
		src := NewCSVishSource(strings.NewReader(in))
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Next(); err == nil || !strings.Contains(err.Error(), "line 3") {
			t.Fatalf("path %q: err = %v, want a line 3 error", path, err)
		}
	}
}

func TestWindowerValidation(t *testing.T) {
	if _, err := NewWindower(0); err == nil {
		t.Fatal("delta=0 must be rejected")
	}
}

func TestWindowerGroupsByDelta(t *testing.T) {
	w, tree := newBound(t, 15*time.Minute)
	// Three records in unit 0, one in unit 1.
	for _, r := range []Record{
		rec(1*time.Minute, "a"),
		rec(5*time.Minute, "a"),
		rec(14*time.Minute, "b"),
	} {
		done, err := w.ObserveDense(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(done) != 0 {
			t.Fatalf("no unit should complete yet, got %d", len(done))
		}
	}
	done, err := w.ObserveDense(rec(16*time.Minute, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 1 {
		t.Fatalf("completed units = %d, want 1", len(done))
	}
	u := keyedOf(tree, done[0])
	if u[hierarchy.KeyOf([]string{"a"})] != 2 || u[hierarchy.KeyOf([]string{"b"})] != 1 {
		t.Fatalf("unit counts = %v", u)
	}
	last := keyedOf(tree, w.FlushDense())
	if last[hierarchy.KeyOf([]string{"a"})] != 1 {
		t.Fatalf("flushed unit = %v", last)
	}
}

func TestWindowerEmitsEmptyGapUnits(t *testing.T) {
	w, _ := newBound(t, 10*time.Minute)
	if _, err := w.ObserveDense(rec(0, "a")); err != nil {
		t.Fatal(err)
	}
	// Jump 35 minutes: units 0,1,2 complete; 1 and 2 are empty.
	done, err := w.ObserveDense(rec(35*time.Minute, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 3 {
		t.Fatalf("completed units = %d, want 3", len(done))
	}
	if done[1].Len() != 0 || done[2].Len() != 0 {
		t.Fatalf("gap units must be empty: %d, %d entries", done[1].Len(), done[2].Len())
	}
}

func TestWindowerRejectsOutOfOrder(t *testing.T) {
	w, _ := newBound(t, 10*time.Minute)
	if _, err := w.ObserveDense(rec(20*time.Minute, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.ObserveDense(rec(5*time.Minute, "b")); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v, want ErrOutOfOrder", err)
	}
	// Same-unit earlier timestamps are fine (floor is the unit start).
	if _, err := w.ObserveDense(rec(21*time.Minute, "c")); err != nil {
		t.Fatal(err)
	}
}

// TestWindowerRejectsBadPath: a record whose path the tree refuses —
// an empty component, or one holding the Key separator, which would
// give two nodes one Key — is rejected before the windowing position
// or the tree changes, even as a stream's first record.
func TestWindowerRejectsBadPath(t *testing.T) {
	w, tree := newBound(t, 10*time.Minute)
	for _, path := range [][]string{{""}, {"a\x1fb"}, {"a", ""}, {"new", "", "x"}} {
		r := Record{Path: path, Time: t0().Add(25 * time.Minute)}
		if done, err := w.ObserveDense(r); err == nil || len(done) != 0 {
			t.Fatalf("path %q: err = %v, %d units; want an error", path, err, len(done))
		}
	}
	if !w.Start().IsZero() || tree.Len() != 1 {
		t.Fatalf("refused records moved the window to %v and grew the tree to %d nodes", w.Start(), tree.Len())
	}
	for _, r := range []Record{rec(3*time.Minute, "a"), rec(4*time.Minute, "a", "b")} {
		if _, err := w.ObserveDense(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.ObserveDense(Record{Path: []string{"a", "b\x1fc"}, Time: t0().Add(25 * time.Minute)}); err == nil {
		t.Fatal("a refused path under a known prefix must error")
	}
	if !w.Start().Equal(t0()) || tree.Len() != 3 {
		t.Fatalf("window at %v with %d nodes, want %v and 3", w.Start(), tree.Len(), t0())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWindowerAlignsToDeltaBoundary(t *testing.T) {
	w, _ := newBound(t, 15*time.Minute)
	if _, err := w.ObserveDense(rec(7*time.Minute, "a")); err != nil {
		t.Fatal(err)
	}
	if !w.Start().Equal(t0()) {
		t.Fatalf("Start = %v, want %v (truncated)", w.Start(), t0())
	}
}
