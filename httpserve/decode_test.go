package httpserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tiresias"
	"tiresias/api"
	"tiresias/internal/wirerec"
)

// The oracle: the ingest decode as it was before the span scanner —
// json.Unmarshal into api.Record, validate, group — kept here as the
// reference the scanner is compared against. It differs from that code
// in one respect, the bug fixed alongside: NDJSON lines are numbered
// against the body as sent, not against the trimmed body.

type oracleGroup struct {
	stream string
	recs   []tiresias.Record
}

func oracleParse(raw []byte, ndjson bool) ([]api.Record, error) {
	if ndjson {
		var recs []api.Record
		for n, line := range bytes.Split(raw, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var rec api.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				return nil, fmt.Errorf("bad record on line %d: %w", n+1, err)
			}
			recs = append(recs, rec)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("empty request body")
		}
		return recs, nil
	}
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("empty request body")
	}
	if trimmed[0] == '[' {
		var recs []api.Record
		if err := json.Unmarshal(trimmed, &recs); err != nil {
			return nil, fmt.Errorf("bad record array: %w%s", err, ndjsonHint)
		}
		return recs, nil
	}
	var rec api.Record
	if err := json.Unmarshal(trimmed, &rec); err != nil {
		return nil, fmt.Errorf("bad record: %w%s", err, ndjsonHint)
	}
	return []api.Record{rec}, nil
}

// oracleInvalid is the record rule: why rec is refused, "" if it is
// not.
func oracleInvalid(rec api.Record) string {
	switch {
	case len(rec.Path) == 0:
		return "empty path"
	case slices.ContainsFunc(rec.Path, func(l string) bool { return l == "" || strings.Contains(l, "\x1f") }):
		return "path component empty or containing U+001F"
	case rec.Time.IsZero():
		return "missing time"
	}
	return ""
}

func oracleIngest(raw []byte, ndjson bool) ([]oracleGroup, *wireError) {
	recs, err := oracleParse(raw, ndjson)
	if err != nil {
		return nil, &wireError{status: http.StatusBadRequest, code: api.CodeBadRequest, message: err.Error()}
	}
	for i, rec := range recs {
		what := oracleInvalid(rec)
		if what == "" {
			continue
		}
		return nil, &wireError{
			status:  http.StatusBadRequest,
			code:    api.CodeInvalidRecord,
			message: fmt.Sprintf("record %d: %s", i, what),
			details: map[string]any{"record": i},
		}
	}
	var out []oracleGroup
	for _, rec := range recs {
		name := rec.Stream
		if name == "" {
			name = api.DefaultStream
		}
		r := tiresias.Record{Path: rec.Path, Time: rec.Time}
		if n := len(out); n > 0 && out[n-1].stream == name {
			out[n-1].recs = append(out[n-1].recs, r)
			continue
		}
		out = append(out, oracleGroup{stream: name, recs: []tiresias.Record{r}})
	}
	return out, nil
}

// decodeGroups runs the server's decode on raw and cuts the groups the
// handler would feed, copied out of the decoder: its record array goes
// back to the pool with it.
func decodeGroups(s *Server, raw []byte, ndjson bool) ([]oracleGroup, *wireError) {
	d := s.decoders.Get().(*decoder)
	defer s.putDecoder(d)
	d.body = append(d.body[:0], raw...)
	if we := s.decodeIngest(d, ndjson); we != nil {
		return nil, we
	}
	var out []oracleGroup
	lo := 0
	for _, run := range d.runs {
		out = append(out, oracleGroup{stream: run.Stream, recs: slices.Clone(d.recs[lo:run.End])})
		lo = run.End
	}
	return out, nil
}

// sameOutcome compares a decode against the oracle's: same
// accept/reject, same wire error, same (stream, path, time) sequence
// and grouping.
func sameOutcome(got []oracleGroup, gotErr *wireError, want []oracleGroup, wantErr *wireError) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("error = %+v, oracle %+v", gotErr, wantErr)
	}
	if gotErr != nil {
		if !reflect.DeepEqual(gotErr, wantErr) {
			return fmt.Errorf("error = %+v, oracle %+v", gotErr, wantErr)
		}
		return nil
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, oracle %d", len(got), len(want))
	}
	for g := range got {
		if got[g].stream != want[g].stream || len(got[g].recs) != len(want[g].recs) {
			return fmt.Errorf("group %d = %q × %d, oracle %q × %d", g, got[g].stream, len(got[g].recs), want[g].stream, len(want[g].recs))
		}
		for i, r := range got[g].recs {
			w := want[g].recs[i]
			if !reflect.DeepEqual(r.Path, w.Path) {
				return fmt.Errorf("group %d record %d: path %q, oracle %q", g, i, r.Path, w.Path)
			}
			_, off := r.Time.Zone()
			_, woff := w.Time.Zone()
			if !r.Time.Equal(w.Time) || off != woff {
				return fmt.Errorf("group %d record %d: time %v, oracle %v", g, i, r.Time, w.Time)
			}
		}
	}
	return nil
}

// oracleFile is the file framing's reference: JSON lines decoded by
// json.Unmarshal into api.Record and held to the record rule as they
// are read, so the first line that fails either ends the file. It
// returns the records before that line and the line's number (0 for
// none).
func oracleFile(raw []byte) ([]tiresias.Record, int) {
	var recs []tiresias.Record
	for n, line := range bytes.Split(raw, []byte("\n")) {
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		var rec api.Record
		if json.Unmarshal(line, &rec) != nil || oracleInvalid(rec) != "" {
			return recs, n + 1
		}
		recs = append(recs, tiresias.Record{Path: rec.Path, Time: rec.Time})
	}
	return recs, 0
}

// checkFileAgainstOracle reads raw as a JSON-lines file through
// tiresias.NewJSONLSource, and then raw twice over (the second copy
// through a warm cache), and holds both to oracleFile: the same
// (path, time) sequence, then an error naming the same line or EOF.
func checkFileAgainstOracle(t *testing.T, raw []byte) {
	t.Helper()
	for _, body := range [][]byte{raw, slices.Concat(raw, []byte("\n"), raw)} {
		want, line := oracleFile(body)
		src := tiresias.NewJSONLSource(bytes.NewReader(body))
		for i, w := range want {
			r, err := src.Next()
			if err != nil {
				t.Fatalf("file %q: record %d: %v", body, i, err)
			}
			_, off := r.Time.Zone()
			_, woff := w.Time.Zone()
			if !reflect.DeepEqual(r.Path, w.Path) || !r.Time.Equal(w.Time) || off != woff {
				t.Fatalf("file %q: record %d = %q at %v, oracle %q at %v", body, i, r.Path, r.Time, w.Path, w.Time)
			}
		}
		_, err := src.Next()
		if wantErr := fmt.Sprintf("stream: line %d: ", line); line == 0 && err != io.EOF || line > 0 && (err == nil || !strings.HasPrefix(err.Error(), wantErr)) {
			t.Fatalf("file %q: after %d records err = %v, oracle fails line %d", body, len(want), err, line)
		}
	}
}

// checkAgainstOracle decodes raw on a cold server and again with the
// caches it warmed, and holds both to the oracle; an NDJSON body is
// also read as a file.
func checkAgainstOracle(t *testing.T, raw []byte, ndjson bool) {
	t.Helper()
	if ndjson {
		checkFileAgainstOracle(t, raw)
	}
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, wantErr := oracleIngest(raw, ndjson)
	for _, pass := range []string{"cold", "warm"} {
		got, gotErr := decodeGroups(s, raw, ndjson)
		if err := sameOutcome(got, gotErr, want, wantErr); err != nil {
			t.Fatalf("%s decode of %q (ndjson=%v): %v", pass, raw, ndjson, err)
		}
	}
}

// FuzzIngestDecode is the differential target: the span scanner must
// agree with the json.Unmarshal-into-api.Record oracle on every body,
// in both framings, cold and warm, and on every NDJSON body read as a
// JSON-lines file. The seeds below take a file through a line longer
// than the line reader's 64 KiB starting buffer and through a last
// line with no newline.
func FuzzIngestDecode(f *testing.F) {
	const good = `{"path":["x","y"],"time":"2010-09-14T00:00:01Z"}`
	f.Add([]byte(`{"path":["`+strings.Repeat("x", 70<<10)+`"],"time":"2010-09-14T00:00:01Z"}`+"\n"+good+"\n"), true)
	f.Add([]byte(good+"\n\n"+`{"stream":"b","path":["x"],"time":"2010-09-14T00:00:02Z"}`), true)
	f.Fuzz(func(t *testing.T, raw []byte, ndjson bool) {
		checkAgainstOracle(t, raw, ndjson)
	})
}

// TestDecodeMatchesOracle runs the shapes the fuzz corpus was seeded
// from through the same check under plain go test, in both framings
// and, for the single-line ones, wrapped in an array.
func TestDecodeMatchesOracle(t *testing.T) {
	const ts = `"2010-09-14T00:00:01Z"`
	lines := []string{
		`{"stream":"a","path":["x","y"],"time":` + ts + `}`,
		`{"time":` + ts + `,"path":["x","y"],"stream":"a"}`,
		` { "stream" : "a" , "path" : [ "x" , "y" ] , "time" : ` + ts + ` } `,
		`{"path":["x"],"time":` + ts + `}`,
		`{"stream":"","path":["x"],"time":` + ts + `}`,
		`{"stream":"default","path":["x"],"time":` + ts + `}`,
		`{}`,
		`{"path":[],"time":` + ts + `}`,
		`{"path":["x"]}`,
		`{"path":["x"],"time":"0001-01-01T00:00:00Z"}`,
		// Escapes, in every span.
		`{"stream":"a\"b\\","path":["x\"]","y\\"],"time":` + ts + `}`,
		`{"stream":"a","path":["é","😀","\n"],"time":` + ts + `}`,
		`{"stream":"\u0061","path":["\u0078"],"time":"2010-09-14T00:00:01\u005a"}`,
		`{"p\u0061th":["x"],"time":` + ts + `}`,
		`{"path":["bad \x escape"],"time":` + ts + `}`,
		"{\"path\":[\"ctl \x01\"],\"time\":" + ts + "}",
		// Invalid UTF-8 is repaired by encoding/json, not rejected.
		"{\"stream\":\"\xff\xfe\",\"path\":[\"\xc3\x28\",\"ok\"],\"time\":" + ts + "}",
		// Keys: duplicate, case variants, unknown (with nesting).
		`{"path":["x"],"path":["y","z"],"time":` + ts + `}`,
		`{"path":["x","y"],"path":["z"],"time":` + ts + `}`,
		`{"stream":"a","stream":"b","path":["x"],"time":` + ts + `}`,
		`{"Path":["x"],"TIME":` + ts + `,"Stream":"S"}`,
		`{"path":["x"],"Path":["y"],"time":` + ts + `}`,
		`{"path":["x"],"time":` + ts + `,"extra":{"a":[1,{"b":"]}"}],"c":null}}`,
		`{"path":["x"],"time":` + ts + `,"stream":"a","value":3}`,
		// null, fields and elements; wrong types.
		`{"stream":null,"path":["x"],"time":` + ts + `}`,
		`{"path":null,"time":` + ts + `}`,
		`{"path":["x"],"time":null}`,
		`{"path":["x",null,"y"],"time":` + ts + `}`,
		`{"path":[null],"time":` + ts + `}`,
		`{"path":["x",1],"time":` + ts + `}`,
		`{"path":[["x"]],"time":` + ts + `}`,
		`{"path":"x","time":` + ts + `}`,
		`{"path":{"a":"b"},"time":` + ts + `}`,
		`{"stream":7,"path":["x"],"time":` + ts + `}`,
		`{"path":["x"],"time":1284422401}`,
		`{"path":["x"],"time":{"a":1}}`,
		`null`,
		`"string"`,
		`17`,
		// Timestamps: fractions, offsets, a Z inside, leap second,
		// ranges, lenient forms time.Parse lets through.
		`{"path":["x"],"time":"2010-09-14T00:00:01.5Z"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:01.123456789Z"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:01.1234567891Z"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:01.Z"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:01,5Z"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:59.999999999Z"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:60Z"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:01+02:00"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:01.25-07:30"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:01+00:00"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:01+24:00"}`,
		`{"path":["x"],"time":"2010-09-14T00:Z0:01Z"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:0ZZ"}`,
		`{"path":["x"],"time":"2010-09-14T00:00:01z"}`,
		`{"path":["x"],"time":"2010-09-14t00:00:01Z"}`,
		`{"path":["x"],"time":"2010-09-14 00:00:01Z"}`,
		`{"path":["x"],"time":"2010-09-14T1:00:01Z"}`,
		`{"path":["x"],"time":"2010-13-14T00:00:01Z"}`,
		`{"path":["x"],"time":"2010-02-30T00:00:01Z"}`,
		`{"path":["x"],"time":"2012-02-29T23:59:01Z"}`,
		`{"path":["x"],"time":"2010-09-14T24:00:01Z"}`,
		`{"path":["x"],"time":"2010-09-14T00:60:01Z"}`,
		`{"path":["x"],"time":"20100914T000001Z"}`,
		`{"path":["x"],"time":"+010-09-14T00:00:01Z"}`,
		`{"path":["x"],"time":""}`,
		// Trailing data and truncation.
		`{"path":["x"],"time":` + ts + `}}`,
		`{"path":["x"],"time":` + ts + `} {"path":["y"],"time":` + ts + `}`,
		`{"path":["x"],"time":` + ts + `},`,
		`{"path":["x"],"time":` + ts,
		`{"path":["x"],"time":"2010-09-14T00:00:01Z`,
		`{"path":["x","time":` + ts + `}`,
		`{"path":["x",],"time":` + ts + `}`,
		`{"path":["x"],"time":` + ts + `,}`,
		`{"path":["x"] "time":` + ts + `}`,
		`{"path"["x"],"time":` + ts + `}`,
		`{not json`,
		"\v{\"path\":[\"x\"],\"time\":" + ts + "}\f",
		" {\"path\":[\"x\"],\"time\":" + ts + "}",
		"{\"path\":[\"x\"],\v\"time\":" + ts + "}",
	}
	for _, line := range lines {
		checkAgainstOracle(t, []byte(line), false)
		checkAgainstOracle(t, []byte(line), true)
		checkAgainstOracle(t, []byte("["+line+"]"), false)
		checkAgainstOracle(t, []byte("[\n"+line+" , "+lines[0]+"\n]\n"), false)
	}
	good, other := lines[0], `{"stream":"b","path":["x","y"],"time":`+ts+`}`
	bodies := []string{
		"", " \n\t ", "\n\n", "[]", " [ ] ", "[", "]", "[]]", "[],", "[null]", "[{}]", "[null," + good + "]",
		"[" + good + "]x", "[" + good + ",]", "[," + good + "]", "[" + good + " " + good + "]",
		good + "\n" + good + "\n" + other + "\n" + good + "\n",
		good + "\r\n" + other + "\r\n",
		"\n\n" + good + "\n\n\n" + other,
		"\n\n{bad",
		good + "\n\n" + `{"path":["x"],"time":"nope"}` + "\n" + good,
		good + "\n" + `{"path":[],"time":` + ts + `}` + "\n{bad\n",
		good + "\n" + `{"path":[],"time":` + ts + `}` + "\n" + `{"path":["x"]}`,
		"[" + good + "," + other + "," + other + "," + good + "]",
		"[" + good + "," + `{"path":[]}` + "," + good + "]",
	}
	for _, body := range bodies {
		checkAgainstOracle(t, []byte(body), false)
		checkAgainstOracle(t, []byte(body), true)
	}
	// The scanner's hit paths, each at its edge: a record that warms a
	// memo or the cache, then records that almost match it. Each runs
	// as NDJSON and as an array; the warm pass runs them on hits.
	const minute = `"time":"2010-09-14T00:00:`
	for _, recs := range [][]string{
		// A label holding ']' after its path's prefix was cached.
		{`{"path":["x","y"],` + minute + `01Z"}`, `{"path":["x","y]"],` + minute + `01Z"}`, `{"path":["x","y]","z"],` + minute + `01Z"}`, `{"path":["x]"],` + minute + `01Z"}`, `{"path":["x"],` + minute + `01Z"}`},
		// A stream and its one-byte extension, both ways round.
		{`{"stream":"s","path":["x"],` + minute + `01Z"}`, `{"stream":"s0","path":["x"],` + minute + `01Z"}`, `{"stream":"s","path":["x"],` + minute + `01Z"}`},
		{`{"stream":"s0","path":["x"],` + minute + `01Z"}`, `{"stream":"s","path":["x"],` + minute + `01Z"}`, `{"stream":"s\"","path":["x"],` + minute + `01Z"}`},
		// Times in the cached minute, on and just off its rules.
		{`{"path":["x"],` + minute + `01Z"}`, `{"path":["x"],` + minute + `02Z"}`, `{"path":["x"],` + minute + `02.5Z"}`, `{"path":["x"],` + minute + `02.123456789Z"}`, `{"path":["x"],` + minute + `59.999999999Z"}`},
		{`{"path":["x"],` + minute + `01Z"}`, `{"path":["x"],` + minute + `02.1234567891Z"}`},
		{`{"path":["x"],` + minute + `01Z"}`, `{"path":["x"],` + minute + `60Z"}`},
		{`{"path":["x"],` + minute + `01Z"}`, `{"path":["x"],` + minute + `02.Z"}`},
		{`{"path":["x"],` + minute + `01Z"}`, `{"path":["x"],` + minute + `02z"}`},
		{`{"path":["x"],` + minute + `01Z"}`, `{"path":["x"],` + minute + `\"2Z"}`},
		{`{"path":["x"],` + minute + `01Z"}`, `{"path":["x"],` + minute + `02Z","stream":"a"}`, `{"path":["x"],` + minute + `02Z\""}`},
		// Before any minute is cached: zero bytes where the minute goes.
		{"{\"path\":[\"x\"],\"time\":\"" + strings.Repeat("\x00", 17) + "00Z\"}", `{"path":["x"],` + minute + `01Z"}`},
		// Keys that are not the literal compare's, after ones that are.
		{`{"stream":"a","path":["x"],` + minute + `01Z"}`, `{"stream" :"a","path" :["x"],"time" :"2010-09-14T00:00:01Z"}`},
		{`{"stream":"a","path":["x"],` + minute + `01Z"}`, `{"streams":"a","path":["x"],` + minute + `01Z"}`, `{"paths":["x"],` + minute + `01Z"}`},
		{`{"path":["x"],` + minute + `01Z"}`, `{"p\u0061th":["x"],` + minute + `01Z"}`, `{"path":["x"],"tim\u0065":"2010-09-14T00:00:01Z"}`},
	} {
		checkAgainstOracle(t, []byte(strings.Join(recs, "\n")), true)
		checkAgainstOracle(t, []byte("["+strings.Join(recs, ",")+"]"), false)
	}
}

// TestNDJSONErrorCases pins the NDJSON decode errors: lines are
// numbered against the body as sent, a decode error wins over an
// earlier invalid record, and the invalid record carries its index.
func TestNDJSONErrorCases(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	const good = `{"path":["a"],"time":"2010-09-14T00:00:00Z"}`
	for _, tc := range []struct {
		name, body, code, message string
		record                    any
	}{
		{"leading blank lines count", "\n\n{bad", api.CodeBadRequest, "bad record on line 3:", nil},
		{"first line", "{bad\n" + good, api.CodeBadRequest, "bad record on line 1:", nil},
		{"blank lines between", good + "\n\n\r\n" + `{"path":7}` + "\n", api.CodeBadRequest, "bad record on line 4:", nil},
		{"only blank lines", "\n \n\t\n", api.CodeBadRequest, "empty request body", nil},
		{"decode error wins over an earlier invalid record", `{"path":[]}` + "\n{bad", api.CodeBadRequest, "bad record on line 2:", nil},
		{"invalid record carries its index", good + "\n\n" + `{"path":["a"]}` + "\n" + `{"path":[]}`, api.CodeInvalidRecord, "record 1: missing time", float64(1)},
	} {
		resp := post(t, ts.URL+"/v2/records", "application/x-ndjson", tc.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		e := decodeError(t, resp)
		if e.Code != tc.code || !strings.HasPrefix(e.Message, tc.message) || e.Details["record"] != tc.record {
			t.Fatalf("%s: error = %+v, want code %s, message %q…, record %v", tc.name, e, tc.code, tc.message, tc.record)
		}
	}
	if st := s.Manager().Stats(); st.Records != 0 || st.Streams != 0 {
		t.Fatalf("a rejected batch fed records: %+v", st)
	}
}

// TestIngestRejectsBadPathComponents: a path component that is empty
// or holds the Key separator U+001F would give two categories one Key
// (or a category the root's), so the batch is refused as an invalid
// record naming its index, in every framing, every time it is sent
// (such a path is never cached), and nothing of it is fed. A scanner
// mark on a record encoding/json then decodes differently does not
// stick.
func TestIngestRejectsBadPathComponents(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	const good = `{"path":["a","b"],"time":"2010-09-14T00:00:00Z"}`
	for _, tc := range []struct {
		name, ctype, body string
		record            float64
	}{
		{"array empty component", "application/json", `[` + good + `,{"path":["a",""],"time":"2010-09-14T00:00:00Z"}]`, 1},
		{"array separator", "application/json", `[` + good + `,` + good + `,{"path":["a\u001fb"],"time":"2010-09-14T00:00:00Z"}]`, 2},
		{"array separator again", "application/json", `[{"path":["a\u001fb"],"time":"2010-09-14T00:00:00Z"}]`, 0},
		{"single object", "application/json", `{"path":[""],"time":"2010-09-14T00:00:00Z"}`, 0},
		{"ndjson", "application/x-ndjson", good + "\n\n" + `{"path":["x","","y"],"time":"2010-09-14T00:00:00Z"}`, 1},
		{"fallback", "application/json", `[` + good + `,{"path":["a","b"],"time":"2010-09-14T00:00:00Z","extra":1},{"path":[""],"time":"2010-09-14T00:00:00Z"}]`, 2},
	} {
		resp := post(t, ts.URL+"/v2/records", tc.ctype, tc.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		e := decodeError(t, resp)
		if e.Code != api.CodeInvalidRecord || e.Details["record"] != tc.record || !strings.Contains(e.Message, "U+001F") {
			t.Fatalf("%s: error = %+v, want %s for record %v", tc.name, e, api.CodeInvalidRecord, tc.record)
		}
	}
	if st := s.Manager().Stats(); st.Records != 0 || st.Streams != 0 {
		t.Fatalf("a rejected batch fed records: %+v", st)
	}
	// Duplicate keys send the record to encoding/json, which keeps the
	// last path: a valid one.
	dup := `{"path":[""],"path":["a","c"],"time":"2010-09-14T00:00:00Z"}`
	if resp := post(t, ts.URL+"/v2/records", "application/json", dup, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate path keys: status = %d, error %+v", resp.StatusCode, decodeError(t, resp))
	}
}

// TestOversizedContentLengthIs413BeforeReading: a declared length over
// the limit is refused without touching the body; a chunked body is
// still cut off by the limit reader.
func TestOversizedContentLengthIs413BeforeReading(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 64
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, declared := range []int64{65, -1} {
		body := &countingReader{r: strings.NewReader(strings.Repeat(" ", 4096))}
		req := httptest.NewRequest(http.MethodPost, "/v2/records", body)
		req.ContentLength = declared
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), api.CodeBodyTooLarge) {
			t.Fatalf("declared %d: %d %s, want 413 %s", declared, rec.Code, rec.Body, api.CodeBodyTooLarge)
		}
		if declared > 0 && body.n != 0 {
			t.Fatalf("read %d body bytes of a request whose Content-Length was already over the limit", body.n)
		}
		if declared < 0 && (body.n <= 64 || body.n > 4096) {
			t.Fatalf("chunked body: read %d bytes, want just past the 64-byte limit", body.n)
		}
	}
	// A buffer that grew past the limit is not pooled, nor a record
	// array past maxPooledRecords.
	d := &decoder{sc: wirerec.Scanner{Cache: s.cache}, body: make([]byte, 0, 65)}
	s.putDecoder(d)
	if got := s.decoders.Get().(*decoder); got == d {
		t.Fatal("a buffer larger than MaxBodyBytes went back to the pool")
	}
	d = &decoder{sc: wirerec.Scanner{Cache: s.cache}, recs: make([]tiresias.Record, 0, maxPooledRecords+1)}
	s.putDecoder(d)
	if got := s.decoders.Get().(*decoder); got == d {
		t.Fatal("a record array larger than maxPooledRecords went back to the pool")
	}
}

type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// denseBody renders n records step apart over a small set of paths, in
// either framing: all of stream s000, or with run > 0 in runs of run
// records over four streams.
func denseBody(n int, array bool, step time.Duration, run int) []byte {
	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	var b bytes.Buffer
	if array {
		b.WriteByte('[')
	}
	for i := 0; i < n; i++ {
		if array && i > 0 {
			b.WriteByte(',')
		}
		stream := 0
		if run > 0 {
			stream = i / run % 4
		}
		fmt.Fprintf(&b, `{"stream":"s%03d","path":["vho%d","io%d","co%d","dslam%d"],"time":%q}`,
			stream, i%3, i%5, i%7, i%11, base.Add(time.Duration(i)*step).Format(time.RFC3339Nano))
		if !array {
			b.WriteByte('\n')
		}
	}
	if array {
		b.WriteByte(']')
	}
	return b.Bytes()
}

// TestWarmDecodeAllocatesPerBodyNotPerRecord pins the body read's and
// the decode's allocation count once the caches hold the body's spans
// and the pooled body and record arrays have grown to the body:
// nothing, per body or per record.
func TestWarmDecodeAllocatesPerBodyNotPerRecord(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range []struct {
		name          string
		body          []byte
		array         bool
		records, runs int
	}{
		{"1000-record NDJSON", denseBody(1000, false, time.Second, 0), false, 1000, 1},
		{"100-record array", denseBody(100, true, time.Second, 0), true, 100, 1},
		{"100-record array, switching streams", denseBody(100, true, 250*time.Millisecond, 10), true, 100, 10},
	} {
		body := tc.body
		var r bytes.Reader
		d := &decoder{sc: wirerec.Scanner{Cache: s.cache}}
		decode := func() {
			r.Reset(body)
			if err := d.readBody(&r, int64(len(body)), s.cfg.MaxBodyBytes); err != nil {
				t.Fatal(err)
			}
			if we := s.decodeIngest(d, !tc.array); we != nil {
				t.Fatal(we.message)
			}
			if len(d.recs) != tc.records || len(d.runs) != tc.runs {
				t.Fatalf("%s: %d records in %d runs", tc.name, len(d.recs), len(d.runs))
			}
		}
		decode()
		if allocs := testing.AllocsPerRun(20, decode); allocs > 0 {
			t.Errorf("%s: %.1f allocations per warm body, want 0", tc.name, allocs)
		}
	}
}

// TestConcurrentIngestSharesReadOnlyPaths posts overlapping bodies
// from several goroutines to a pipelined server. Under -race this is
// the check that nothing downstream of the decoder writes the shared,
// cached Path slices; the snapshot comparison says it directly.
func TestConcurrentIngestSharesReadOnlyPaths(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 8
	cfg.Shards = 4
	s, ts := newTestServer(t, cfg)
	const posters, rounds = 4, 6
	var wg sync.WaitGroup
	for p := 0; p < posters; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Every poster names the same paths; streams are
				// per poster so each stays in time order.
				body := bytes.ReplaceAll(denseBody(200, r%2 == 1, time.Second, 0), []byte("s000"), []byte(fmt.Sprintf("s%03d", p)))
				ct := "application/x-ndjson"
				if r%2 == 1 {
					ct = "application/json"
				}
				resp, err := http.Post(ts.URL+"/v2/records", ct, bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if r > 0 {
					continue // later rounds are out of order for the stream: 400s, decoded all the same
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("poster %d: status %d", p, resp.StatusCode)
				}
			}
		}(p)
	}
	wg.Wait()
	s.Manager().Drain()
	// A warm decode hands out the cached slices themselves: each must
	// still hold what its span says, with clipped capacity.
	for _, array := range []bool{false, true} {
		groups, we := decodeGroups(s, denseBody(200, array, time.Second, 0), !array)
		if we != nil {
			t.Fatal(we.message)
		}
		for _, g := range groups {
			for i, r := range g.recs {
				want := []string{fmt.Sprintf("vho%d", i%3), fmt.Sprintf("io%d", i%5), fmt.Sprintf("co%d", i%7), fmt.Sprintf("dslam%d", i%11)}
				if !reflect.DeepEqual(r.Path, want) || cap(r.Path) != len(r.Path) {
					t.Fatalf("cached path of record %d = %q (cap %d), want %q with clipped capacity", i, r.Path, cap(r.Path), want)
				}
			}
		}
	}
	if hits := scrape(t, ts.URL)["tiresias_ingest_path_cache_hits_total"]; hits == 0 {
		t.Fatal("no path cache hits after ingest")
	}
}

// TestCacheFullClearsAndRewarms drives more distinct spans through a
// tiny cache than it holds: the detections equal those of an
// uncrowded server, and every body misses the paths the cache lost.
// (That the cache stays bounded is wirerec's TestCacheStaysBounded.)
func TestCacheFullClearsAndRewarms(t *testing.T) {
	detect := func(pathCap, streamCap int) ([]tiresias.Anomaly, map[string]float64) {
		s, ts := newTestServer(t, testConfig())
		s.cache = wirerec.NewCache(pathCap, streamCap)
		var out []tiresias.Anomaly
		for _, stream := range []string{"a", "b", "c", "d", "e", "f"} {
			// 51 distinct paths a body (one of them the stream's own),
			// two streams a body.
			body := strings.ReplaceAll(ndjsonBody(stream, 30), `"io2"]`, `"io2","x`+stream+`"]`) +
				strings.ReplaceAll(string(denseBody(50, false, time.Second, 0)), "s000", "dense-"+stream)
			var ing api.IngestResponse
			if resp := post(t, ts.URL+"/v2/records", "application/x-ndjson", body, &ing); resp.StatusCode != http.StatusOK {
				t.Fatalf("stream %s: status %d", stream, resp.StatusCode)
			}
			out = append(out, ing.Anomalies...)
		}
		return out, scrape(t, ts.URL)
	}
	want, _ := detect(wirerec.PathCacheCap, wirerec.StreamCacheCap)
	got, series := detect(4, 1)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("detections through a crowded cache differ: %d, want %d", len(got), len(want))
	}
	if hits, misses := series["tiresias_ingest_path_cache_hits_total"], series["tiresias_ingest_path_cache_misses_total"]; hits == 0 || misses < 6*47 {
		t.Fatalf("path cache hits = %v, misses = %v; want hits, and every body missing all but the 4 paths the cache can hold", hits, misses)
	}
	if n := series["tiresias_ingest_decode_seconds_count"]; n != 6 {
		t.Fatalf("tiresias_ingest_decode_seconds_count = %v, want one observation per body (6)", n)
	}
}
