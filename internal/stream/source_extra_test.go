package stream

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// TestCSVishSourceTimestampCache checks that records sharing a
// timestamp string parse correctly through the cached path and that a
// timestamp change invalidates the cache.
func TestCSVishSourceTimestampCache(t *testing.T) {
	in := strings.Join([]string{
		"2012-06-18T10:00:00Z,a/x",
		"2012-06-18T10:00:00Z,a/y", // same second: cached parse
		"2012-06-18T10:00:00Z,b",
		"2012-06-18T10:00:01Z,a/x",  // new second: fresh parse
		"2012-06-18T10:00:00Z,late", // repeated older prefix must still parse right
	}, "\n")
	src := NewCSVishSource(strings.NewReader(in))
	want := []struct {
		sec  int
		path string
	}{
		{0, "a/x"}, {0, "a/y"}, {0, "b"}, {1, "a/x"}, {0, "late"},
	}
	base := time.Date(2012, 6, 18, 10, 0, 0, 0, time.UTC)
	for i, w := range want {
		r, err := src.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !r.Time.Equal(base.Add(time.Duration(w.sec) * time.Second)) {
			t.Fatalf("record %d time = %v, want +%ds", i, r.Time, w.sec)
		}
		if got := strings.Join(r.Path, "/"); got != w.path {
			t.Fatalf("record %d path = %q, want %q", i, got, w.path)
		}
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestCSVishSourceSteadyAllocs checks the line path does not copy
// every line into a fresh string: reading a same-second record costs
// only the unavoidable Path allocations.
func TestCSVishSourceSteadyAllocs(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&sb, "2012-06-18T10:00:00Z,a/x\n")
	}
	src := NewCSVishSource(strings.NewReader(sb.String()))
	// Path construction allocates (one string + one slice); the line
	// itself and the timestamp must not.
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("CSVish Next allocates %.2f per record, want <= 2 (path only)", allocs)
	}
}

// TestCSVishSourceEmptyTimestamp pins the parse-cache guard: an empty
// timestamp before the comma must be a parse error, not a cache hit
// against the initially empty cache.
func TestCSVishSourceEmptyTimestamp(t *testing.T) {
	src := NewCSVishSource(strings.NewReader(",a/b\n"))
	if _, err := src.Next(); err == nil {
		t.Fatal("empty timestamp on the first line must error")
	}
}

// TestLineReaderLongLines checks lines larger than the bufio buffer
// are reassembled, and lines past the 4 MiB cap error out.
func TestLineReaderLongLines(t *testing.T) {
	long := strings.Repeat("x", 100*1024) // > 64 KiB reader buffer
	in := "2012-06-18T10:00:00Z," + long + "\n2012-06-18T10:00:01Z,ok\n"
	src := NewCSVishSource(strings.NewReader(in))
	r, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Path) != 1 || len(r.Path[0]) != len(long) {
		t.Fatalf("long line mangled: %d path components", len(r.Path))
	}
	r, err = src.Next()
	if err != nil || r.Path[0] != "ok" {
		t.Fatalf("record after long line = %v, %v", r.Path, err)
	}

	tooLong := strings.Repeat("y", maxLineLen+2)
	src = NewCSVishSource(strings.NewReader("2012-06-18T10:00:00Z," + tooLong + "\n2012-06-18T10:00:01Z,tail\n"))
	if _, err := src.Next(); err == nil {
		t.Fatal("line past maxLineLen must error")
	}
	// The error is sticky: the tail of the oversized line (and
	// anything after it) must not surface as fresh records.
	if _, err := src.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("oversized-line error not sticky: %v", err)
	}
}

// TestJSONLSourceNoTrailingNewline checks the final unterminated line
// still parses (ReadSlice returns it with io.EOF).
func TestJSONLSourceNoTrailingNewline(t *testing.T) {
	in := `{"path":["a"],"time":"2012-06-18T10:00:00Z"}` + "\n" +
		`{"path":["b"],"time":"2012-06-18T10:00:01Z"}` // no trailing \n
	src := NewJSONLSource(strings.NewReader(in))
	for i, want := range []string{"a", "b"} {
		r, err := src.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if r.Path[0] != want {
			t.Fatalf("record %d path = %v", i, r.Path)
		}
	}
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestJSONLSourceRefusesInvalidRecords: a record that breaks the
// record rule — no path, a label that names no node, no time — is an
// error naming its line, where it used to be counted at the root or
// fail later with no line.
func TestJSONLSourceRefusesInvalidRecords(t *testing.T) {
	const good = `{"path":["a"],"time":"2012-06-18T10:00:00Z"}`
	for _, tc := range []struct{ name, line, want string }{
		{"empty path", `{"path":[],"time":"2012-06-18T10:00:01Z"}`, "empty path"},
		{"absent path", `{"time":"2012-06-18T10:00:01Z"}`, "empty path"},
		{"null path", `{"path":null,"time":"2012-06-18T10:00:01Z"}`, "empty path"},
		{"missing time", `{"path":["a","b"]}`, "missing time"},
		{"zero time", `{"path":["a"],"time":"0001-01-01T00:00:00Z"}`, "missing time"},
		{"separator label", `{"path":["a\u001fb"],"time":"2012-06-18T10:00:01Z"}`, "U+001F"},
		{"empty label", `{"path":["a",""],"time":"2012-06-18T10:00:01Z"}`, "U+001F"},
		{"empty label off the canonical shape", `{"path":[""],"time":"2012-06-18T10:00:01Z","x":1}`, "U+001F"},
		{"non-string stream", `{"stream":7,"path":["a"],"time":"2012-06-18T10:00:01Z"}`, "cannot unmarshal number"},
	} {
		for _, first := range []bool{true, false} {
			in, line := tc.line+"\n", "line 1:"
			if !first {
				in, line = good+"\n\n"+in, "line 3:"
			}
			src := NewJSONLSource(strings.NewReader(in))
			if !first {
				if _, err := src.Next(); err != nil {
					t.Fatalf("%s: good line: %v", tc.name, err)
				}
			}
			r, err := src.Next()
			if err == nil || !strings.Contains(err.Error(), line) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s (first %v): record %+v, err = %v; want a %q error naming %q", tc.name, first, r, err, tc.want, line)
			}
		}
	}
}

// TestJSONLSourceFreshPaths: a returned Path is the caller's, as a
// CSVishSource's is — writing to it does not change a later record of
// the same path, which the source decodes from its cache.
func TestJSONLSourceFreshPaths(t *testing.T) {
	line := `{"path":["a","b"],"time":"2012-06-18T10:00:00Z"}` + "\n"
	src := NewJSONLSource(strings.NewReader(line + line + line))
	r1, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	r1.Path[0] = "mutated"
	for i := 2; i <= 3; i++ {
		r, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Join(r.Path, "/") != "a/b" {
			t.Fatalf("record %d path = %q after the caller wrote to record 1's", i, r.Path)
		}
		r.Path[1] = "mutated"
	}
}

// jsonlBody renders n one-second-apart JSON-lines records over 60
// paths, a replayed operational log's few categories.
func jsonlBody(n int) string {
	base := time.Date(2012, 6, 18, 10, 0, 0, 0, time.UTC)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, `{"path":["vho%d","io%d","co%d"],"time":%q}`+"\n",
			i%3, i%4, i%5, base.Add(time.Duration(i)*time.Second).Format(time.RFC3339))
	}
	return sb.String()
}

// TestJSONLSourceSteadyAllocs: once a source has seen a record's path
// and minute, reading the record allocates only its fresh Path.
func TestJSONLSourceSteadyAllocs(t *testing.T) {
	src := NewJSONLSource(strings.NewReader(jsonlBody(3000)))
	for i := 0; i < 60; i++ { // every path once
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("JSONL Next allocates %.2f per warm record, want <= 1 (the Path)", allocs)
	}
}

// BenchmarkJSONLSource reads a 1000-record JSON-lines file through a
// fresh source per iteration: cold caches, then the warm path.
func BenchmarkJSONLSource(b *testing.B) {
	const n = 1000
	body := jsonlBody(n)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src := NewJSONLSource(strings.NewReader(body))
		for {
			if _, err := src.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
