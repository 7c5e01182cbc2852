package httpserve

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"tiresias"
	"tiresias/api"
	"tiresias/internal/stream"
	"tiresias/internal/wirerec"
)

// maxPooledRecords caps the record array a pooled decoder keeps: a
// larger one, grown by an outsized body, is left to the collector.
const maxPooledRecords = 1 << 15

// decoder is the per-request ingest state, pooled across requests: it
// frames a body around the records internal/wirerec decodes, groups
// them into same-stream runs and holds them to the record rule. The
// body buffer, the record array and the run boundaries are all reused.
// Nothing downstream keeps the records: the pipeline copies a body in
// (Manager.EnqueueRuns) and the synchronous path feeds it in place.
type decoder struct {
	sc   wirerec.Scanner // over the server-wide span cache
	body []byte
	recs []tiresias.Record
	runs []tiresias.StreamRun
	lim  io.LimitedReader // readBody's, so a body costs no LimitReader allocation

	// bad is the index of the body's first record that breaks the
	// record rule (-1: none), and why says how.
	bad int
	why string
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
	d.reserve(0)
	d.sc.Begin()
	defer d.sc.End()
	if ndjson {
		return d.scanLines(d.body)
	}
	raw := bytes.TrimSpace(d.body)
	if len(raw) == 0 {
		return errors.New("empty request body")
	}
	if raw[0] != '[' {
		if err := wirerec.Decode[api.Record](&d.sc, raw); err != nil {
			return fmt.Errorf("bad record: %w%s", err, ndjsonHint)
		}
		d.emit()
		return nil
	}
	d.reserve(recordBound(raw, '{'))
	if d.array(raw) {
		return nil
	}
	var recs []api.Record
	if err := wirerec.Unmarshal[api.Record](raw, &recs); err != nil {
		return fmt.Errorf("bad record array: %w%s", err, ndjsonHint)
	}
	d.reserve(len(recs))
	for _, r := range recs {
		d.sc.Set(wirerec.Record(r))
		d.emit()
	}
	return nil
}

// reserve empties the record and run arrays, with room for n records.
func (d *decoder) reserve(n int) {
	if cap(d.recs) < n {
		d.recs = make([]tiresias.Record, 0, n)
	}
	d.recs, d.runs, d.bad = d.recs[:0], d.runs[:0], -1
}

// recordBound sizes the record array from the count of a byte every
// record has at least one of, capped by the body's length over 32 (a
// valid record is longer) so bare separators cannot amplify.
func recordBound(raw []byte, sep byte) int {
	return min(bytes.Count(raw, []byte{sep}), len(raw)/32) + 1
}

// scanLines parses one JSON record per line, skipping blank lines;
// lines are numbered against the body as sent.
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
		if err := wirerec.Decode[api.Record](&d.sc, line); err != nil {
			return fmt.Errorf("bad record on line %d: %w", n, err)
		}
		d.emit()
	}
	if len(d.recs) == 0 {
		return errors.New("empty request body")
	}
	return nil
}

// emit appends the record d.sc decoded last, with its path's cache
// handle, extends or opens its run and notes it when it is the body's
// first to break the record rule.
//
//tiresias:hotpath
func (d *decoder) emit() {
	r := &d.sc.Rec
	if why := d.sc.Invalid(); why != "" && d.bad < 0 {
		d.bad, d.why = len(d.recs), why
	}
	name := r.Stream
	if name == "" {
		name = api.DefaultStream
	}
	d.recs = append(d.recs, stream.CachedRecord(r.Path, r.Time, d.sc.Ref))
	if n := len(d.runs); n > 0 && d.runs[n-1].Stream == name {
		d.runs[n-1].End = len(d.recs)
		return
	}
	d.runs = append(d.runs, tiresias.StreamRun{Stream: name, End: len(d.recs)})
}

// array tokenizes a whole '['-led body, emitting its records; false
// means some element is off the canonical shape and the body must go
// through encoding/json instead.
//
//tiresias:hotpath
func (d *decoder) array(b []byte) bool {
	i := wirerec.SkipSpace(b, 1)
	if i < len(b) && b[i] == ']' {
		return i+1 == len(b)
	}
	for {
		end, ok := d.sc.Object(b, i)
		if !ok {
			return false
		}
		d.emit()
		i = wirerec.SkipSpace(b, end)
		if i >= len(b) {
			return false
		}
		switch b[i] {
		case ',':
			i = wirerec.SkipSpace(b, i+1)
		case ']':
			return i+1 == len(b)
		default:
			return false
		}
	}
}
