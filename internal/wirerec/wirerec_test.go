package wirerec

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestCacheStaysBounded drives more distinct spans through a tiny
// cache than it holds, one pass per record: every record still decodes
// right, and the cache clears rather than grows past its bounds.
func TestCacheStaysBounded(t *testing.T) {
	c := NewCache(4, 1)
	s := Scanner{Cache: c}
	for i := 0; i < 50; i++ {
		line := fmt.Sprintf(`{"stream":"s%d","path":["a","p%d"],"time":"2010-09-14T00:00:01Z"}`, i%3, i)
		s.Begin()
		err := Decode[Record](&s, []byte(line))
		s.End()
		if err != nil {
			t.Fatal(err)
		}
		if want := []string{"a", fmt.Sprintf("p%d", i)}; !reflect.DeepEqual(s.Rec.Path, want) || s.Rec.Stream != fmt.Sprintf("s%d", i%3) {
			t.Fatalf("record %d = %+v, want path %q", i, s.Rec, want)
		}
		if np, ns := len(c.paths), len(c.streams); np == 0 || np > 4 || ns != 1 {
			t.Fatalf("after record %d the cache holds %d paths and %d streams, want 1–4 and 1", i, np, ns)
		}
	}
}

// TestInvalid pins the record rule, whichever decoder (the scanner or
// the fallback) produced the record, and on a repeat of a refused path
// (which is never cached).
func TestInvalid(t *testing.T) {
	s := Scanner{Cache: NewCache(PathCacheCap, StreamCacheCap)}
	const ts = `"time":"2010-09-14T00:00:01Z"`
	for _, tc := range []struct{ line, want string }{
		{`{"path":["a"],` + ts + `}`, ""},
		{`{"path":["a"],` + ts + `,"extra":1}`, ""},
		{`{"path":[],` + ts + `}`, "empty path"},
		{`{` + ts + `}`, "empty path"},
		{`{"path":null,` + ts + `}`, "empty path"},
		{`{"path":["a",""],` + ts + `}`, "path component empty or containing U+001F"},
		{`{"path":["a\u001fb"],` + ts + `}`, "path component empty or containing U+001F"},
		{`{"path":[""],` + ts + `,"extra":1}`, "path component empty or containing U+001F"},
		{`{"path":["a"]}`, "missing time"},
		{`{"path":["a"],"time":"0001-01-01T00:00:00Z"}`, "missing time"},
	} {
		for pass := 0; pass < 2; pass++ {
			s.Begin()
			err := Decode[Record](&s, []byte(tc.line))
			s.End()
			if err != nil {
				t.Fatalf("%s: %v", tc.line, err)
			}
			if got := s.Invalid(); got != tc.want {
				t.Fatalf("%s (pass %d): Invalid() = %q, want %q", tc.line, pass, got, tc.want)
			}
		}
	}
}

// TestFallbackNamesCallerType: the fallback decodes into the record
// type Decode is given, so encoding/json's error text names that type.
func TestFallbackNamesCallerType(t *testing.T) {
	type wireRecord Record
	s := Scanner{Cache: NewCache(PathCacheCap, StreamCacheCap)}
	s.Begin()
	err := Decode[wireRecord](&s, []byte(`"not an object"`))
	s.End()
	if err == nil || !strings.Contains(err.Error(), "wirerec.wireRecord") {
		t.Fatalf("err = %v, want encoding/json's error naming wirerec.wireRecord", err)
	}
}

// TestWarmDecodeAllocatesNothing: once the cache holds a pass's spans,
// decoding it allocates nothing, on every hit path: whole-second and
// fractional times in the cached minute and past it, a stream that
// switches within the pass, and a label holding ']' (a path found by
// its second lookup).
func TestWarmDecodeAllocatesNothing(t *testing.T) {
	s := Scanner{Cache: NewCache(PathCacheCap, StreamCacheCap)}
	lines := [][]byte{
		[]byte(`{"stream":"s","path":["vho1","io2","co3"],"time":"2010-09-14T00:00:01.5Z"}`),
		[]byte(`{"stream":"s","path":["vho1","io2","co4"],"time":"2010-09-14T00:00:02Z"}`),
		[]byte(`{"stream":"t","path":["vho1","io2","co3"],"time":"2010-09-14T00:00:02.123456789Z"}`),
		[]byte(`{"stream":"s","path":["vho1","io2"],"time":"2010-09-14T00:01:00Z"}`),
		[]byte(`{"time":"2010-09-14T00:01:00.25Z","path":["vho1","io2"],"stream":"t"}`),
		[]byte(`{"stream":"t","path":["vho1","io]2"],"time":"2010-09-14T00:01:00.5Z"}`),
	}
	decode := func() {
		s.Begin()
		for _, line := range lines {
			if err := Decode[Record](&s, line); err != nil {
				t.Fatal(err)
			}
		}
		s.End()
	}
	decode()
	if allocs := testing.AllocsPerRun(100, decode); allocs > 0 {
		t.Fatalf("%.1f allocations per warm pass of %d records, want 0", allocs, len(lines))
	}
	if s.PathHits != uint64(len(lines)) || s.PathMisses != 0 {
		t.Fatalf("warm pass: %d path hits and %d misses, want %d and 0", s.PathHits, s.PathMisses, len(lines))
	}
}

// denseBody renders a dense_ingest-shaped NDJSON body: n records of
// one stream over the 810 leaves of a four-level tree, four a second.
func denseBody(n int) []byte {
	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	var b []byte
	for i := 0; i < n; i++ {
		b = fmt.Appendf(b, `{"stream":"s000","path":["cat%d","sub%d","sym%d","act%d"],"time":"`, i%9, i/9%6, i/54%3, i/162%5)
		b = base.Add(time.Duration(i/4)*time.Second).AppendFormat(b, time.RFC3339)
		b = append(b, "\"}\n"...)
	}
	return b
}

// BenchmarkScannerDecode decodes a warm 1000-line dense_ingest-shaped
// NDJSON body, one pass per body, line by line as the server's decoder
// frames it: the decode layer alone. ns/record is the figure to read;
// B/op and allocs/op are per body.
func BenchmarkScannerDecode(b *testing.B) {
	const records = 1000
	body := denseBody(records)
	s := Scanner{Cache: NewCache(PathCacheCap, StreamCacheCap)}
	decode := func() {
		s.Begin()
		defer s.End()
		for raw := body; len(raw) > 0; {
			k := bytes.IndexByte(raw, '\n')
			if err := Decode[Record](&s, raw[:k]); err != nil {
				b.Fatal(err)
			}
			raw = raw[k+1:]
		}
	}
	decode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decode()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
