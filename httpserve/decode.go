package httpserve

// Ingest decode: one span scanner in front of encoding/json.
//
// The scanner only tokenizes. It finds the raw key and value spans of
// the canonical record shape — an object whose keys are exactly
// "stream", "path" and "time", in any order, each at most once — and
// resolves the value spans through caches keyed by their raw bytes.
// A cache miss hands the span to the code the wire contract is defined
// by (json.Unmarshal, time.Time.UnmarshalJSON); a record off the
// canonical shape hands the whole line (the whole body, for the array
// form) to json.Unmarshal into api.Record. encoding/json therefore
// stays the single source of wire semantics and error text: the
// scanner never unescapes, never repairs UTF-8 and never formats a
// decode error of its own.
//
// Why a span that json accepted on its own decodes the same inside its
// record: JSON values are prefix-free, so if json accepts b[lo:hi] as
// one complete string or array, the parser reading the whole record
// sees that value end at hi too; and a field of a fresh api.Record is
// decoded by the same code as a fresh variable of the field's type.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"tiresias"
	"tiresias/api"
	"tiresias/internal/hierarchy"
)

const (
	// pathCacheCap and streamCacheCap bound the span caches by entry
	// count, maxCachedSpan by entry size (a longer span is decoded on
	// every sight): at most ≈25 MB under hostile cardinality. A full
	// cache is cleared, not evicted from — the working set of a real
	// fleet re-warms in one pass, and a clear cannot be gamed into
	// keeping hostile entries.
	pathCacheCap   = 1 << 16
	streamCacheCap = 1 << 12
	maxCachedSpan  = 256

	// maxPooledRecords caps the record array a pooled decoder keeps: a
	// larger one, grown by an outsized body, is left to the collector.
	maxPooledRecords = 1 << 15
)

// spanCache is the server-wide, raw-span-keyed value cache of the
// ingest scanner. A decode holds mu for reading across one body's scan
// and adds what the body missed in one write afterwards, so the warm
// path takes one read lock per body.
type spanCache struct {
	mu sync.RWMutex
	// paths maps the text between '[' and ']' of a "path" value to its
	// decoded segments. The slices are shared by every record (and
	// goroutine) that names the path: read-only, capacity clipped.
	paths map[string][]string // guarded by mu
	// streams maps the text between the quotes of a "stream" value to
	// its decoded name.
	streams   map[string]string // guarded by mu
	pathCap   int
	streamCap int
}

func newSpanCache(pathCap, streamCap int) *spanCache {
	return &spanCache{
		paths:     make(map[string][]string),
		streams:   make(map[string]string),
		pathCap:   pathCap,
		streamCap: streamCap,
	}
}

// add inserts the spans one body missed, clearing a map that is full.
func (c *spanCache) add(paths map[string][]string, streams map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for span, p := range paths {
		if len(c.paths) >= c.pathCap {
			clear(c.paths)
		}
		c.paths[span] = p
	}
	for span, name := range streams {
		if len(c.streams) >= c.streamCap {
			clear(c.streams)
		}
		c.streams[span] = name
	}
}

// decoder is the per-request ingest state, pooled across requests: the
// body buffer, the record array and the run boundaries are all reused.
// Nothing downstream keeps the records: the pipeline copies a body in
// (Manager.EnqueueRuns) and the synchronous path feeds it in place.
type decoder struct {
	cache *spanCache
	body  []byte
	recs  []tiresias.Record
	runs  []tiresias.StreamRun

	// lim caps readBody's reads; kept here so a body costs no
	// LimitReader allocation.
	lim io.LimitedReader

	// rec and name hold the record object last tokenized; emit commits
	// them. name is the raw decoded stream ("" selects the default).
	rec  tiresias.Record
	name string

	// streamSpan/streamName shortcut the stream cache for consecutive
	// records of one stream; streamSpan aliases the body, so it is
	// valid for one decode only.
	streamSpan []byte
	streamName string
	// minute/minuteBase cache the last "YYYY-MM-DDTHH:MM:" prefix of a
	// UTC timestamp and the instant of its second 00. The mapping is a
	// pure function of the bytes, so it survives across bodies.
	minute     [17]byte
	minuteBase time.Time

	// newPaths and newStreams hold the spans this body decoded on a
	// cache miss, until decode adds them to the cache.
	newPaths   map[string][]string
	newStreams map[string]string

	// pathHits and pathMisses count the last body's path lookups.
	pathHits, pathMisses uint64
	// badPath is the index of the body's first record whose path
	// names no node (see hierarchy.ValidLabel), -1 for none. Such a
	// path is never cached, so only a cache miss needs the check.
	badPath int
}

// errBodyTooLarge marks an ingest body over Config.MaxBodyBytes.
var errBodyTooLarge = errors.New("request body too large")

// readBody fills the decoder's buffer from r, pre-sized from the
// declared length (-1: unknown), and fails with errBodyTooLarge once
// more than limit bytes arrive.
func (d *decoder) readBody(r io.Reader, declared, limit int64) error {
	d.body = d.body[:0]
	if need := max(int(min(declared, limit))+1, bytes.MinRead); cap(d.body) < need {
		d.body = make([]byte, 0, need)
	}
	d.lim = io.LimitedReader{R: r, N: limit + 1}
	for {
		if len(d.body) == cap(d.body) {
			d.body = append(d.body, 0)[:len(d.body)]
		}
		n, err := d.lim.Read(d.body[len(d.body):cap(d.body)])
		d.body = d.body[:len(d.body)+n]
		if int64(len(d.body)) > limit {
			return errBodyTooLarge
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("bad request body: %w", err)
		}
	}
}

// ndjsonHint ends the JSON decode errors: a one-record-per-line body
// sent without its content type fails here, and the 400 says why.
const ndjsonHint = " (send one record per line with Content-Type: application/x-ndjson)"

// decode parses the body d has read into d.recs and d.runs. The
// framing is decided once, never by trial: NDJSON iff ndjson is set,
// otherwise a leading '[' selects a JSON array and anything else one
// JSON object. Nothing of the body is retained.
func (d *decoder) decode(ndjson bool) error {
	d.recs, d.runs, d.streamSpan = d.recs[:0], d.runs[:0], nil
	d.pathHits, d.pathMisses, d.badPath = 0, 0, -1
	d.cache.mu.RLock()
	err := d.scan(d.body, ndjson)
	d.cache.mu.RUnlock()
	if len(d.newPaths) > 0 || len(d.newStreams) > 0 {
		d.cache.add(d.newPaths, d.newStreams)
		d.newPaths, d.newStreams = nil, nil
	}
	return err
}

// scan is decode's body. The caller holds cache.mu for reading.
func (d *decoder) scan(raw []byte, ndjson bool) error {
	if ndjson {
		return d.scanLines(raw)
	}
	raw = bytes.TrimSpace(raw)
	if len(raw) == 0 {
		return errors.New("empty request body")
	}
	if raw[0] == '[' {
		d.reserve(recordBound(raw, '{'))
		if d.array(raw) {
			return nil
		}
		var recs []api.Record
		if err := json.Unmarshal(raw, &recs); err != nil {
			return fmt.Errorf("bad record array: %w%s", err, ndjsonHint)
		}
		d.reserve(len(recs))
		d.runs = d.runs[:0]
		for _, r := range recs {
			d.emitDecoded(r)
		}
		return nil
	}
	if end, ok := d.object(raw, 0); ok && end == len(raw) {
		d.emit()
		return nil
	}
	var rec api.Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return fmt.Errorf("bad record: %w%s", err, ndjsonHint)
	}
	d.emitDecoded(rec)
	return nil
}

// reserve empties the record array, growing it to hold n records.
func (d *decoder) reserve(n int) {
	if cap(d.recs) < n {
		d.recs = make([]tiresias.Record, 0, n)
	}
	d.recs, d.badPath = d.recs[:0], -1
}

// recordBound sizes the record array from the count of a byte every
// record has at least one of, capped by the body's length over 32 (a
// record that passes validation is longer) so a body of bare
// separators cannot amplify.
func recordBound(raw []byte, sep byte) int {
	return min(bytes.Count(raw, []byte{sep}), len(raw)/32) + 1
}

// scanLines parses one JSON record per line, skipping blank lines;
// lines are numbered against the body as sent. The caller holds
// cache.mu for reading.
func (d *decoder) scanLines(raw []byte) error {
	d.reserve(recordBound(raw, '\n'))
	for n := 1; len(raw) > 0; n++ {
		line := raw
		if k := bytes.IndexByte(raw, '\n'); k >= 0 {
			line, raw = raw[:k], raw[k+1:]
		} else {
			raw = nil
		}
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		if end, ok := d.object(line, 0); ok && end == len(line) {
			d.emit()
			continue
		}
		var rec api.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("bad record on line %d: %w", n, err)
		}
		d.emitDecoded(rec)
	}
	if len(d.recs) == 0 {
		return errors.New("empty request body")
	}
	return nil
}

// emitDecoded commits a record encoding/json decoded (the fallback),
// checking its path afresh: a mark the scanner left on the same record
// before handing it over is replaced.
func (d *decoder) emitDecoded(r api.Record) {
	if d.badPath == len(d.recs) {
		d.badPath = -1
	}
	d.markPath(r.Path)
	d.rec, d.name = tiresias.Record{Path: r.Path, Time: r.Time}, r.Stream
	d.emit()
}

// emit appends the tokenized record and extends or opens its run.
//
//tiresias:hotpath
func (d *decoder) emit() {
	name := d.name
	if name == "" {
		name = api.DefaultStream
	}
	d.recs = append(d.recs, d.rec)
	if n := len(d.runs); n > 0 && d.runs[n-1].Stream == name {
		d.runs[n-1].End = len(d.recs)
		return
	}
	d.runs = append(d.runs, tiresias.StreamRun{Stream: name, End: len(d.recs)})
}

// array tokenizes a whole '['-led body, emitting its records; false
// means some element is off the canonical shape and the body must go
// through encoding/json instead. The caller holds cache.mu for
// reading.
//
//tiresias:hotpath
func (d *decoder) array(b []byte) bool {
	i := skipSpace(b, 1)
	if i < len(b) && b[i] == ']' {
		return i+1 == len(b)
	}
	for {
		end, ok := d.object(b, i)
		if !ok {
			return false
		}
		d.emit()
		i = skipSpace(b, end)
		if i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i+1 == len(b)
		default:
			return false
		}
	}
}

// object tokenizes one record object starting at b[i] into d.rec and
// d.name and returns the index after its '}'. false means the object
// is off the canonical shape, or one of its spans was refused by the
// code that defines it; the caller then lets encoding/json decide.
// The caller holds cache.mu for reading.
//
//tiresias:hotpath
func (d *decoder) object(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '{' {
		return i, false
	}
	d.rec, d.name = tiresias.Record{}, ""
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	var seen uint8
	for {
		key, j, ok := rawString(b, i)
		if !ok {
			return i, false
		}
		i = skipSpace(b, j)
		if i >= len(b) || b[i] != ':' {
			return i, false
		}
		i = skipSpace(b, i+1)
		if i >= len(b) {
			return i, false
		}
		var bit uint8
		//tiresias:ignore hotpath (the compiler elides the copy in a switch on string(bytes))
		switch string(key) {
		case "stream":
			bit = 1
			span, j, ok := rawString(b, i)
			if !ok || !d.stream(span, b[i:j]) {
				return i, false
			}
			i = j
		case "path":
			bit = 2
			if b[i] != '[' {
				return i, false
			}
			j, ok := arrayEnd(b, i+1)
			if !ok || !d.path(b[i+1:j], b[i:j+1]) {
				return i, false
			}
			i = j + 1
		case "time":
			bit = 4
			span, j, ok := rawString(b, i)
			if !ok || !d.time(span, b[i:j]) {
				return i, false
			}
			i = j
		default:
			return i, false
		}
		if seen&bit != 0 {
			return i, false
		}
		seen |= bit
		i = skipSpace(b, i)
		if i >= len(b) {
			return i, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
//
//tiresias:hotpath
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
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

// stream resolves a "stream" value: span is the text between the
// quotes, quoted the literal with them. The caller holds cache.mu for
// reading.
//
//tiresias:hotpath
func (d *decoder) stream(span, quoted []byte) bool {
	if d.streamSpan != nil && bytes.Equal(span, d.streamSpan) {
		d.name = d.streamName
		return true
	}
	//tiresias:ignore hotpath (the compiler elides the copy in a map index by string(bytes))
	name, ok := d.cache.streams[string(span)]
	if !ok {
		if name, ok = d.streamMiss(span, quoted); !ok {
			return false
		}
	}
	d.name, d.streamSpan, d.streamName = name, span, name
	return true
}

// streamMiss decodes a stream name the cache does not hold, through
// encoding/json, and keeps it for the cache.
func (d *decoder) streamMiss(span, quoted []byte) (string, bool) {
	if name, ok := d.newStreams[string(span)]; ok {
		return name, true
	}
	var name string
	if json.Unmarshal(quoted, &name) != nil {
		return "", false
	}
	if len(span) <= maxCachedSpan {
		if d.newStreams == nil {
			d.newStreams = make(map[string]string)
		}
		d.newStreams[string(span)] = name
	}
	return name, true
}

// path resolves a "path" value: span is the text between the brackets,
// bracketed the array with them. The caller holds cache.mu for
// reading.
//
//tiresias:hotpath
func (d *decoder) path(span, bracketed []byte) bool {
	//tiresias:ignore hotpath (the compiler elides the copy in a map index by string(bytes))
	p, ok := d.cache.paths[string(span)]
	if ok {
		d.pathHits++
	} else if p, ok = d.pathMiss(span, bracketed); !ok {
		return false
	}
	d.rec.Path = p
	return true
}

// pathMiss decodes a path the cache does not hold, through
// encoding/json, and keeps it for the cache unless it names no node.
func (d *decoder) pathMiss(span, bracketed []byte) ([]string, bool) {
	if p, ok := d.newPaths[string(span)]; ok {
		d.pathHits++
		return p, true
	}
	var p []string
	if json.Unmarshal(bracketed, &p) != nil {
		return nil, false
	}
	d.pathMisses++
	p = p[:len(p):len(p)]
	if !d.markPath(p) && len(span) <= maxCachedSpan {
		if d.newPaths == nil {
			d.newPaths = make(map[string][]string)
		}
		d.newPaths[string(span)] = p
	}
	return p, true
}

// markPath records the record being decoded as the body's first with
// a path that names no node, when it is, and reports whether it is.
func (d *decoder) markPath(p []string) bool {
	for _, label := range p {
		if !hierarchy.ValidLabel(label) {
			if d.badPath < 0 {
				d.badPath = len(d.recs)
			}
			return true
		}
	}
	return false
}

// time resolves a "time" value: span is the text between the quotes,
// quoted the literal with them. A UTC timestamp of the shape
// YYYY-MM-DDTHH:MM:SS[.f{1,9}]Z is the instant of its minute — parsed
// by time.Time.UnmarshalJSON, cached — plus its seconds; any other
// shape goes to UnmarshalJSON whole. (Zone offsets are left out of the
// minute cache because UnmarshalJSON picks their Location per
// instant.)
//
//tiresias:hotpath
func (d *decoder) time(span, quoted []byte) bool {
	past, ok := pastMinute(span)
	if !ok {
		return d.rec.Time.UnmarshalJSON(quoted) == nil
	}
	if !bytes.Equal(span[:17], d.minute[:]) && !d.minuteMiss(span[:17]) {
		return false
	}
	d.rec.Time = d.minuteBase.Add(past)
	return true
}

// pastMinute reads what follows the minute of a UTC timestamp: span
// must end :SS[.f{1,9}]Z from byte 16 on, SS below 60 (UnmarshalJSON
// refuses a leap second, so one must reach it). The 16 bytes before
// are the minute cache's to judge.
//
//tiresias:hotpath
func pastMinute(span []byte) (time.Duration, bool) {
	n := len(span)
	if n < 20 || n > 30 || n == 21 || span[n-1] != 'Z' || span[16] != ':' || (n > 20 && span[19] != '.') {
		return 0, false
	}
	past, unit := time.Duration(0), 10*time.Second
	for k := 17; k < n-1; k++ {
		c := span[k]
		if k == 19 {
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		past += time.Duration(c-'0') * unit
		unit /= 10
	}
	return past, past < time.Minute
}

// minuteMiss parses second 00 of a minute prefix through
// time.Time.UnmarshalJSON and makes it the cached minute.
func (d *decoder) minuteMiss(prefix []byte) bool {
	var lit [22]byte
	lit[0] = '"'
	copy(lit[1:], prefix)
	copy(lit[18:], `00Z"`)
	var t time.Time
	if t.UnmarshalJSON(lit[:]) != nil {
		return false
	}
	copy(d.minute[:], prefix)
	d.minuteBase = t
	return true
}
