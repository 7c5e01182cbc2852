// Package wirerec decodes the wire record, {"stream": name, "path":
// [label, ...], "time": RFC 3339}, for request bodies (httpserve) and
// JSON-lines files (internal/stream) alike; the framing is the
// caller's.
//
// A span scanner sits in front of encoding/json and only tokenizes. It
// finds the raw key and value spans of the canonical record shape — an
// object whose keys are exactly "stream", "path" and "time", in any
// order, each at most once — and resolves the value spans through
// caches keyed by their raw bytes. A cache miss hands the span to the
// code the wire contract is defined by (json.Unmarshal,
// time.Time.UnmarshalJSON); input off the canonical shape goes to
// Unmarshal whole. encoding/json therefore stays the single source of
// wire semantics and error text: the scanner never unescapes, never
// repairs UTF-8 and never formats a decode error of its own.
//
// Why a span that json accepted on its own decodes the same inside its
// record: JSON values are prefix-free, so if json accepts b[lo:hi] as
// one complete string or array, the parser reading the whole record
// sees that value end at hi too; and a field of a fresh record is
// decoded by the same code as a fresh variable of the field's type.
//
// Why a hit skips the scan: the scanner reads a string or a flat array
// left to right, and what it has read decides where it ends. Equal
// bytes followed by the same terminator therefore scan the same, so
// bytes that equal a span the scan ended once — the pass's last stream
// name, a cached path, the cached minute of a timestamp — followed by
// the byte it ended at are the span the slow scan would return. The hit
// paths compare those bytes and that terminator in one pass over the
// record; anything else takes the slow scan.
package wirerec

import (
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"tiresias/internal/hierarchy"
)

// A Cache is bounded by entry count, and by entry size through
// maxCachedSpan (a longer span is decoded on every sight): ≈25 MB at
// most under hostile cardinality. A full cache is cleared, not evicted
// from — a real fleet's working set re-warms in one pass, and a clear
// cannot be gamed into keeping hostile entries.
const (
	// PathCacheCap is the default bound on cached paths.
	PathCacheCap = 1 << 16
	// StreamCacheCap is the default bound on cached stream names.
	StreamCacheCap = 1 << 12
	maxCachedSpan  = 256
)

// Record is the wire record, field for field and tag for tag api.Record.
type Record struct {
	Stream string    `json:"stream,omitempty"`
	Path   []string  `json:"path"`
	Time   time.Time `json:"time"`
}

// Shape is the wire record's struct type: Record's, and api.Record's,
// which this package cannot import. A fallback decodes into its
// caller's type, the one json's error text names ("api.Record").
type Shape interface {
	~struct {
		Stream string    `json:"stream,omitempty"`
		Path   []string  `json:"path"`
		Time   time.Time `json:"time"`
	}
}

// Unmarshal is the fallback for input off the canonical shape:
// encoding/json decodes raw into v, one record or an array of them.
func Unmarshal[T Shape, P *T | *[]T](raw []byte, v P) error { return json.Unmarshal(raw, v) }

// Cache is a raw-span-keyed value cache, shared by the Scanners of one
// owner.
type Cache struct {
	mu sync.RWMutex
	// paths maps the text between '[' and ']' of a "path" value to its
	// decoded segments and their handle. The slices are shared by every
	// record (and goroutine) that names the path: read-only, capacity
	// clipped.
	paths map[string]cachedPath // guarded by mu
	// streams maps the text between the quotes of a "stream" value to
	// its decoded name.
	streams   map[string]string // guarded by mu
	pathCap   int
	streamCap int
	// lastRef is the handle add gave last. It counts on across clears
	// (skipping 0 when it wraps), so a handle is a hint that may repeat,
	// never a name: see Scanner.Ref.
	lastRef uint32 // guarded by mu
}

// cachedPath is a cached path and its handle, non-zero.
type cachedPath struct {
	path []string
	ref  uint32
}

// NewCache returns an empty cache of at most pathCap paths and
// streamCap stream names.
func NewCache(pathCap, streamCap int) *Cache {
	return &Cache{
		paths:     make(map[string]cachedPath),
		streams:   make(map[string]string),
		pathCap:   pathCap,
		streamCap: streamCap,
	}
}

// add inserts the spans one pass missed, clearing a map that is full.
func (c *Cache) add(paths map[string][]string, streams map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for span, p := range paths {
		if len(c.paths) >= c.pathCap {
			clear(c.paths)
		}
		if c.lastRef++; c.lastRef == 0 {
			c.lastRef = 1
		}
		c.paths[span] = cachedPath{p, c.lastRef}
	}
	for span, name := range streams {
		if len(c.streams) >= c.streamCap {
			clear(c.streams)
		}
		c.streams[span] = name
	}
}

// Scanner decodes records through a Cache in passes, from Begin to
// End: a pass holds the cache's read lock and adds what it missed in
// one write at End. A Scanner is not safe for concurrent use.
type Scanner struct {
	Cache *Cache // where spans resolve; set before the first pass
	// Rec is the record last decoded. A Path from the cache is shared:
	// read-only, capacity clipped.
	Rec Record
	// Ref is the cache's handle for Rec.Path when the path came from
	// the cache's table, which only holds read-only slices; 0 when it
	// did not (a miss in the current pass, Set, or the encoding/json
	// fallback). The same slice always carries the same handle, but
	// two caches, or one cache across a clear, may give one handle to
	// different slices: a consumer that keys on it must confirm the
	// slice (stream.CachedRecord).
	Ref uint32
	// PathHits and PathMisses count the pass's path lookups.
	PathHits, PathMisses uint64

	// badLabel marks Rec's path as naming no node (hierarchy.ValidLabel);
	// such a path is never cached, so only a miss sets it.
	badLabel bool

	// streamSpan/streamName shortcut the stream cache for consecutive
	// records of one stream (streamValue); streamSpan aliases the pass's
	// input.
	streamSpan []byte
	streamName string
	// minute/minuteSec cache the last "YYYY-MM-DDTHH:MM:" prefix of a
	// UTC timestamp and the Unix time of its second 00. The mapping is a
	// pure function of the bytes, so it survives across passes.
	minute    [17]byte
	minuteSec int64

	// newPaths and newStreams hold the spans this pass decoded on a
	// cache miss, until End adds them to the cache.
	newPaths   map[string][]string
	newStreams map[string]string
}

// Begin starts a pass.
func (s *Scanner) Begin() {
	s.PathHits, s.PathMisses, s.streamSpan = 0, 0, nil
	s.Cache.mu.RLock()
}

// End finishes a pass.
func (s *Scanner) End() {
	s.Cache.mu.RUnlock()
	if len(s.newPaths) > 0 || len(s.newStreams) > 0 {
		s.Cache.add(s.newPaths, s.newStreams)
		s.newPaths, s.newStreams = nil, nil
	}
}

// Decode decodes b, one record object with no space around it, into
// s.Rec: through the span scanner, or off the canonical shape through
// Unmarshal into a T. The error is encoding/json's.
func Decode[T Shape](s *Scanner, b []byte) error {
	if end, ok := s.Object(b, 0); ok && end == len(b) {
		return nil
	}
	var r T
	err := Unmarshal[T](b, &r)
	s.Set(Record(r)) // on an error, Rec is unspecified
	return err
}

// Set makes r, a record Unmarshal decoded, the record last decoded.
func (s *Scanner) Set(r Record) { s.Rec, s.Ref, s.badLabel = r, 0, !validPath(r.Path) }

// Invalid returns why Rec breaks the record rule — a non-empty path of
// labels that each name a node, a non-zero time — or "" if it keeps it.
//
//tiresias:hotpath
func (s *Scanner) Invalid() string {
	switch {
	case len(s.Rec.Path) == 0:
		return "empty path"
	case s.badLabel:
		return "path component empty or containing U+001F"
	case s.Rec.Time.IsZero():
		return "missing time"
	}
	return ""
}

// validPath reports whether every label of p names a node.
func validPath(p []string) bool {
	for _, label := range p {
		if !hierarchy.ValidLabel(label) {
			return false
		}
	}
	return true
}

// Object tokenizes one record object starting at b[i] into Rec and
// returns the index after its '}'. false means the object is off the
// canonical shape, or one of its spans was refused by the code that
// defines it; the caller then lets Unmarshal decide.
//
//tiresias:hotpath
func (s *Scanner) Object(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '{' {
		return i, false
	}
	s.Rec, s.Ref, s.badLabel = Record{}, 0, false
	i = SkipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	var seen uint8
	for {
		k, j := key(b, i)
		if k == 0 || seen&k != 0 {
			return i, false
		}
		seen |= k
		if i = SkipSpace(b, j); i >= len(b) {
			return i, false
		}
		ok := false
		switch k {
		case keyStream:
			i, ok = s.streamValue(b, i)
		case keyPath:
			i, ok = s.pathValue(b, i)
		default:
			i, ok = s.timeValue(b, i)
		}
		if !ok {
			return i, false
		}
		i = SkipSpace(b, i)
		if i >= len(b) {
			return i, false
		}
		switch b[i] {
		case ',':
			i = SkipSpace(b, i+1)
		case '}':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// The canonical keys, one bit each.
const (
	keyStream uint8 = 1 << iota
	keyPath
	keyTime
)

// key reads the object key starting at b[i] and the colon after it,
// and returns which canonical key it is (0: none) and the index after
// the colon. A canonical key with its colon right after it is a
// fixed-width compare; any other form (space before the colon, an
// escape, another key) is scanned and matched by its raw text.
//
//tiresias:hotpath
func key(b []byte, i int) (uint8, int) {
	r := b[i:]
	if len(r) >= 9 && string(r[:9]) == `"stream":` {
		return keyStream, i + 9
	}
	if len(r) >= 7 && string(r[:7]) == `"path":` {
		return keyPath, i + 7
	}
	if len(r) >= 7 && string(r[:7]) == `"time":` {
		return keyTime, i + 7
	}
	name, j, ok := rawString(b, i)
	if !ok {
		return 0, i
	}
	if j = SkipSpace(b, j); j >= len(b) || b[j] != ':' {
		return 0, j
	}
	switch string(name) {
	case "stream":
		return keyStream, j + 1
	case "path":
		return keyPath, j + 1
	case "time":
		return keyTime, j + 1
	}
	return 0, j
}

// SkipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
//
//tiresias:hotpath
func SkipSpace(b []byte, i int) int {
	for i < len(b) && b[i] <= ' ' && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// rawString returns the bytes between the quotes of the string literal
// starting at b[i] and the index after its closing quote. It steps
// over escapes without reading them.
//
//tiresias:hotpath
func rawString(b []byte, i int) ([]byte, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '"':
			return b[i+1 : j], j + 1, true
		case '\\':
			j++
		}
	}
	return nil, i, false
}

// arrayEnd returns the index of the ']' closing a flat array whose
// elements start at b[i]; a nested value is off the canonical shape.
//
//tiresias:hotpath
func arrayEnd(b []byte, i int) (int, bool) {
	for i < len(b) {
		switch b[i] {
		case ']':
			return i, true
		case '"':
			_, j, ok := rawString(b, i)
			if !ok {
				return i, false
			}
			i = j
		case '[', '{':
			return i, false
		default:
			i++
		}
	}
	return i, false
}

// streamValue resolves the "stream" value starting at b[i] and returns
// the index after it. The hit path is the pass's last stream span
// again, closing quote included. The caller holds Cache.mu.
//
//tiresias:hotpath
func (s *Scanner) streamValue(b []byte, i int) (int, bool) {
	if n := len(s.streamSpan); s.streamSpan != nil && i+n+1 < len(b) && b[i] == '"' && b[i+n+1] == '"' && bytes.Equal(b[i+1:i+n+1], s.streamSpan) {
		s.Rec.Stream = s.streamName
		return i + n + 2, true
	}
	span, j, ok := rawString(b, i)
	if !ok || !s.stream(span, b[i:j]) {
		return i, false
	}
	return j, true
}

// stream resolves a stream span the hit path missed: span is the text
// between the quotes, quoted the literal with them. The caller holds
// Cache.mu.
//
//tiresias:hotpath
func (s *Scanner) stream(span, quoted []byte) bool {
	name, ok := s.Cache.streams[string(span)]
	if !ok {
		if name, ok = s.streamMiss(span, quoted); !ok {
			return false
		}
	}
	s.Rec.Stream, s.streamSpan, s.streamName = name, span, name
	return true
}

// streamMiss decodes a stream name the cache does not hold, through
// encoding/json, and keeps it for the cache.
func (s *Scanner) streamMiss(span, quoted []byte) (string, bool) {
	if name, ok := s.newStreams[string(span)]; ok {
		return name, true
	}
	var name string
	if json.Unmarshal(quoted, &name) != nil {
		return "", false
	}
	if len(span) <= maxCachedSpan {
		if s.newStreams == nil {
			s.newStreams = make(map[string]string)
		}
		s.newStreams[string(span)] = name
	}
	return name, true
}

// pathValue resolves the "path" array starting at b[i] and returns the
// index after its ']'. The hit path looks up the text before the first
// ']' in the cache: a cached span is a complete flat array's content,
// which arrayEnd ended at the ']' after it, so a hit is the array
// arrayEnd would find. (A longer span is never cached, so the search
// stops past maxCachedSpan.) On a miss arrayEnd finds the array; only
// a label holding ']' makes its span differ from the one looked up.
// The caller holds Cache.mu.
//
//tiresias:hotpath
func (s *Scanner) pathValue(b []byte, i int) (int, bool) {
	if b[i] != '[' {
		return i, false
	}
	var c cachedPath
	ok := false
	k := bytes.IndexByte(b[i+1:min(len(b), i+2+maxCachedSpan)], ']')
	j := i + 1 + k
	if k >= 0 {
		c, ok = s.Cache.paths[string(b[i+1:j])]
	}
	if !ok {
		end, found := arrayEnd(b, i+1)
		if !found {
			return i, false
		}
		if k >= 0 && end != j {
			c, ok = s.Cache.paths[string(b[i+1:end])]
		}
		if j = end; !ok {
			s.Rec.Path, ok = s.pathMiss(b[i+1:j], b[i:j+1])
			return j + 1, ok
		}
	}
	s.PathHits++
	s.Rec.Path, s.Ref = c.path, c.ref
	return j + 1, true
}

// pathMiss decodes a path the cache does not hold, through
// encoding/json, and keeps it for the cache unless it names no node.
func (s *Scanner) pathMiss(span, bracketed []byte) ([]string, bool) {
	if p, ok := s.newPaths[string(span)]; ok {
		s.PathHits++
		return p, true
	}
	var p []string
	if json.Unmarshal(bracketed, &p) != nil {
		return nil, false
	}
	s.PathMisses++
	p = p[:len(p):len(p)]
	if s.badLabel = !validPath(p); !s.badLabel && len(span) <= maxCachedSpan {
		if s.newPaths == nil {
			s.newPaths = make(map[string][]string)
		}
		s.newPaths[string(span)] = p
	}
	return p, true
}

// timeValue resolves the "time" value starting at b[i] and returns the
// index after it. The hit path is a timestamp in the cached minute: the
// 17 bytes after the quote equal it, and secondsAt reads the rest. No
// byte of it is a quote or a backslash (the minute's were accepted by
// time parsing, and secondsAt accepts none), so rawString would end at
// the same quote and time read the same.
//
//tiresias:hotpath
func (s *Scanner) timeValue(b []byte, i int) (int, bool) {
	if len(b)-i >= 18 && b[i] == '"' && bytes.Equal(b[i+1:i+18], s.minute[:]) {
		if past, j, ok := secondsAt(b, i+17); ok {
			s.Rec.Time = s.minuteAt(past)
			return j, true
		}
	}
	_, j, ok := rawString(b, i)
	if !ok || !s.time(b[i:j]) {
		return i, false
	}
	return j, true
}

// minuteAt returns the instant past into the cached minute, in UTC:
// the value time.Time.UnmarshalJSON gives the minute's second 00 plus
// past, built without Time.Add's general case.
//
//tiresias:hotpath
func (s *Scanner) minuteAt(past time.Duration) time.Time {
	return time.Unix(s.minuteSec+int64(past/time.Second), int64(past%time.Second)).UTC()
}

// time resolves a time literal the hit path missed, quoted with its
// quotes. A UTC timestamp of the shape YYYY-MM-DDTHH:MM:SS[.f{1,9}]Z
// is the instant of its minute — parsed by time.Time.UnmarshalJSON,
// then cached — plus its seconds; any other shape goes to
// UnmarshalJSON whole. (Zone offsets are left out of the minute cache
// because UnmarshalJSON picks their Location per instant.)
//
//tiresias:hotpath
func (s *Scanner) time(quoted []byte) bool {
	past, end, ok := secondsAt(quoted, 17)
	if !ok || end != len(quoted) {
		return s.Rec.Time.UnmarshalJSON(quoted) == nil
	}
	if !s.minuteMiss(quoted[1:18]) {
		return false
	}
	s.Rec.Time = s.minuteAt(past)
	return true
}

// secondsAt reads what follows the minute of a UTC timestamp, from its
// ':' at b[j]: :SS[.f{1,9}]Z and the closing quote, SS below 60
// (UnmarshalJSON refuses a leap second, so one must reach it). It
// returns the time past the minute and the index after the quote. It
// is the one reader of this grammar, for the hit path and the slow
// path alike; the bytes before b[j] are the minute cache's to judge.
//
//tiresias:hotpath
func secondsAt(b []byte, j int) (time.Duration, int, bool) {
	if len(b)-j < 4 || b[j] != ':' {
		return 0, j, false
	}
	d0, d1 := b[j+1]-'0', b[j+2]-'0'
	if d0 > 5 || d1 > 9 {
		return 0, j, false
	}
	past, k := time.Duration(d0*10+d1)*time.Second, j+3
	if b[k] == '.' {
		unit := 100 * time.Millisecond
		for k++; k < len(b) && unit > 0 && b[k]-'0' <= 9; k++ {
			past += time.Duration(b[k]-'0') * unit
			unit /= 10
		}
		if k == j+4 { // no digit after the '.'
			return 0, j, false
		}
	}
	if len(b)-k < 2 || b[k] != 'Z' || b[k+1] != '"' {
		return 0, j, false
	}
	return past, k + 2, true
}

// minuteMiss parses second 00 of a minute prefix through
// time.Time.UnmarshalJSON and makes it the cached minute.
func (s *Scanner) minuteMiss(prefix []byte) bool {
	var lit [22]byte
	lit[0] = '"'
	copy(lit[1:], prefix)
	copy(lit[18:], `00Z"`)
	var t time.Time
	if t.UnmarshalJSON(lit[:]) != nil {
		return false
	}
	copy(s.minute[:], prefix)
	s.minuteSec = t.Unix()
	return true
}
