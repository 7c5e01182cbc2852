// Package stream models the input side of Tiresias (§III and Step 1
// of Fig. 3): a stream of operational-data records, each carrying a
// hierarchical category and a timestamp, classified into timeunits of
// size Δ inside a sliding window. JSON-lines records are decoded by
// internal/wirerec, the server's record decoder.
package stream

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
	"tiresias/internal/wirerec"
)

// Record is a single operational data item s_i = (k_i, t_i): a
// category drawn from a hierarchical domain plus the recorded time.
type Record struct {
	// Path is the category path, root-most component first.
	Path []string `json:"path"`
	// Time is the recorded date and time.
	Time time.Time `json:"time"`

	// ref is the decoder cache's handle for Path; 0 for none. Only
	// CachedRecord sets it.
	ref uint32
}

// CachedRecord returns the record (path, t) for a path a decoder cache
// handed out under handle ref (wirerec.Scanner.Ref): path must be the
// cache's own slice, which nothing ever writes to. A Windower then
// resolves a path it has seen before by the handle and the slice's
// identity instead of interning it again. ref 0 makes a plain record.
func CachedRecord(path []string, t time.Time, ref uint32) Record {
	return Record{Path: path, Time: t, ref: ref}
}

// Key returns the encoded category key.
func (r Record) Key() hierarchy.Key { return hierarchy.KeyOf(r.Path) }

// Source yields records in non-decreasing time order. Next returns
// io.EOF after the last record.
type Source interface {
	Next() (Record, error)
}

// SliceSource serves records from an in-memory slice.
type SliceSource struct {
	records []Record
	i       int
}

var _ Source = (*SliceSource)(nil)

// NewSliceSource copies records (sorting by time) into a Source.
func NewSliceSource(records []Record) *SliceSource {
	cp := make([]Record, len(records))
	copy(cp, records)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Time.Before(cp[j].Time) })
	return &SliceSource{records: cp}
}

// Next implements Source.
func (s *SliceSource) Next() (Record, error) {
	if s.i >= len(s.records) {
		return Record{}, io.EOF
	}
	r := s.records[s.i]
	s.i++
	return r, nil
}

// maxLineLen bounds a single input line.
const maxLineLen = 4 * 1024 * 1024

// lineReader yields the lines of a record file, numbered from 1, each
// a window into the scanner's buffer that is valid until the next
// call: reading a line allocates nothing.
type lineReader struct {
	sc   *bufio.Scanner
	line int   // number of the line most recently returned
	fail error // sticky: a scanner that failed would go on returning data
}

func newLineReader(r io.Reader) lineReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), maxLineLen)
	return lineReader{sc: sc}
}

// record returns the next line that is neither blank nor, when
// comments is set, a '#' comment, with surrounding space trimmed; then
// io.EOF. A read error, or a line over maxLineLen, ends the input.
func (l *lineReader) record(comments bool) ([]byte, error) {
	for l.fail == nil && l.sc.Scan() {
		l.line++
		if line := bytes.TrimSpace(l.sc.Bytes()); len(line) > 0 && !(comments && line[0] == '#') {
			return line, nil
		}
	}
	if l.fail == nil {
		if l.fail = l.sc.Err(); l.fail == nil {
			return nil, io.EOF
		}
		l.fail = fmt.Errorf("stream: line %d: %w", l.line+1, l.fail)
	}
	return nil, l.fail
}

// JSONLSource reads one wire record per line through the span scanner
// of request bodies (internal/wirerec), with a cache of its own.
type JSONLSource struct {
	lr lineReader
	sc wirerec.Scanner
}

var _ Source = (*JSONLSource)(nil)

// NewJSONLSource wraps a reader producing JSON-lines records.
func NewJSONLSource(r io.Reader) *JSONLSource {
	cache := wirerec.NewCache(wirerec.PathCacheCap, wirerec.StreamCacheCap)
	return &JSONLSource{lr: newLineReader(r), sc: wirerec.Scanner{Cache: cache}}
}

// Next implements Source. A line that is not a record, or breaks the
// record rule (see wirerec.Scanner.Invalid), is an error naming the
// line. The stream name is discarded; the Path is a fresh slice.
func (s *JSONLSource) Next() (Record, error) {
	line, err := s.lr.record(false)
	if err != nil {
		return Record{}, err
	}
	s.sc.Begin()
	err = wirerec.Decode[wirerec.Record](&s.sc, line)
	s.sc.End()
	if err != nil {
		return Record{}, fmt.Errorf("stream: line %d: %w", s.lr.line, err)
	}
	if why := s.sc.Invalid(); why != "" {
		return Record{}, fmt.Errorf("stream: line %d: %s", s.lr.line, why)
	}
	return Record{Path: slices.Clone(s.sc.Rec.Path), Time: s.sc.Rec.Time}, nil
}

// CSVishSource reads records in "RFC3339,comp1/comp2/..." form, the
// compact format emitted by cmd/tiresias-gen. Consecutive records
// sharing a timestamp string — the norm for second-resolution feeds —
// parse the time only once.
type CSVishSource struct {
	lr       lineReader
	lastTS   []byte // timestamp prefix of the most recent parse
	lastTime time.Time
}

var _ Source = (*CSVishSource)(nil)

// NewCSVishSource wraps a reader of "time,path" lines.
func NewCSVishSource(r io.Reader) *CSVishSource {
	return &CSVishSource{lr: newLineReader(r)}
}

// Next implements Source.
func (s *CSVishSource) Next() (Record, error) {
	line, err := s.lr.record(true)
	if err != nil {
		return Record{}, err
	}
	comma := bytes.IndexByte(line, ',')
	if comma < 0 {
		return Record{}, fmt.Errorf("stream: line %d: missing comma", s.lr.line)
	}
	tsb := line[:comma]
	var ts time.Time
	if len(tsb) > 0 && bytes.Equal(tsb, s.lastTS) {
		ts = s.lastTime
	} else {
		ts, err = time.Parse(time.RFC3339, string(tsb))
		if err != nil {
			return Record{}, fmt.Errorf("stream: line %d: %w", s.lr.line, err)
		}
		s.lastTS = append(s.lastTS[:0], tsb...)
		s.lastTime = ts
	}
	path := strings.Split(string(line[comma+1:]), "/")
	for _, label := range path {
		if !hierarchy.ValidLabel(label) {
			return Record{}, fmt.Errorf("stream: line %d: path %q has an empty component or one containing U+001F", s.lr.line, line[comma+1:])
		}
	}
	return Record{Time: ts, Path: path}, nil
}

// MarshalCSVish renders a record in the CSVish line format.
func MarshalCSVish(r Record) string {
	return r.Time.Format(time.RFC3339) + "," + strings.Join(r.Path, "/")
}

// ErrOutOfOrder is returned when a record predates the current
// timeunit floor.
var ErrOutOfOrder = errors.New("stream: record out of time order")

// ErrMaxGap is returned when a record's timestamp would force more
// gap-filled empty timeunits than the configured MaxGap bound.
var ErrMaxGap = errors.New("stream: record exceeds the max timeunit gap")

// Windower classifies records into consecutive timeunits of size Δ
// (Step 1 of Fig. 3). Bind it to the hierarchy the consuming engine
// operates on with BindTree, then feed records in time order with
// ObserveDense; each time a record crosses a timeunit boundary, the
// completed timeunits are emitted (possibly several, when the stream
// has gaps). Record paths are interned straight into the tree and
// counted into pooled algo.DenseUnits: returned units are only valid
// until the next ObserveDense/FlushDense call, after which they are
// recycled — the steady state allocates nothing. A caller that keeps a
// unit copies it (DenseUnit.Pairs).
//
// A record from CachedRecord skips the tree: the Windower keeps a
// direct-mapped memo, indexed by the record's handle, of the leaf each
// cached path slice interned to, and a slot whose slice has the
// record's first element and length is that leaf. That is sound
// because a cached slice is never written to and the slot's pointer
// keeps its array alive, so no other slice can start at its address;
// and because the tree only grows, an interned path keeps its ID. A
// handle that two caches, or a cache across a clear, gave different
// slices fails the pointer check and interns. The memo is derived
// state: it is sized from the tree (a power of two at least Len(),
// capped at wirerec.PathCacheCap), rebuilt empty when the tree
// outgrows it, cleared by BindTree, and pins at most one cached slice
// per slot.
type Windower struct {
	delta  time.Duration
	start  time.Time
	began  bool
	maxGap int

	tree *hierarchy.Tree
	memo []memoSlot        // indexed by handle & (len(memo)-1); nil until a cached record
	dcur *algo.DenseUnit   // unit currently being filled
	dbuf []*algo.DenseUnit // units emitted by the last dense call
	free []*algo.DenseUnit // recycled units
}

// NewWindower creates a Windower with timeunit size delta (> 0).
func NewWindower(delta time.Duration) (*Windower, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("stream: delta must be > 0, got %v", delta)
	}
	return &Windower{delta: delta}, nil
}

// NewWindowerAt creates a Windower pre-anchored at start, which must
// be a timeunit boundary: records before start are out-of-order, and
// a gap between start and the first record is filled with empty
// units. Used to resume windowing at a known position mid-stream.
func NewWindowerAt(delta time.Duration, start time.Time) (*Windower, error) {
	w, err := NewWindower(delta)
	if err != nil {
		return nil, err
	}
	w.start = start
	w.began = true
	return w, nil
}

// Start returns the start of the current (incomplete) timeunit; the
// zero time before any record is observed.
func (w *Windower) Start() time.Time { return w.start }

// SetMaxGap bounds how many timeunits a single record may
// force-complete when its timestamp jumps past the current unit (gap
// filling across quiet periods). One bad far-future timestamp would
// otherwise fabricate one empty unit per elapsed Δ with no limit —
// important when records arrive from an ingest endpoint. n <= 0
// disables the bound (trusted feeds only).
func (w *Windower) SetMaxGap(n int) { w.maxGap = n }

// checkGap rejects a record whose timestamp is more than MaxGap
// timeunits past start, the current unit's start (the stream stays
// usable at sane timestamps).
func (w *Windower) checkGap(start, at time.Time) error {
	if w.maxGap <= 0 {
		return nil
	}
	// Compare in units (gap/delta), not nanoseconds: maxGap*delta can
	// overflow a Duration for large timeunit sizes.
	if gap := at.Sub(start); gap/w.delta > time.Duration(w.maxGap) {
		return fmt.Errorf("%w: record at %v is %d timeunits past the current unit start %v (MaxGap %d)",
			ErrMaxGap, at, int(gap/w.delta), start, w.maxGap)
	}
	return nil
}

// anchor returns the start of the current unit for a record at at —
// the record's own unit when it is the first observed — after
// validating time order and the gap bound. It mutates nothing.
func (w *Windower) anchor(at time.Time) (time.Time, error) {
	start := w.start
	if !w.began {
		start = at.Truncate(w.delta)
	}
	if at.Before(start) {
		return start, fmt.Errorf("%w: %v < %v", ErrOutOfOrder, at, start)
	}
	return start, w.checkGap(start, at)
}

// errBadPath is ObserveDense's error for a path the tree refuses.
var errBadPath = errors.New("stream: record path has an empty component or one containing U+001F")

// BindTree sets the hierarchy record paths are interned into; it must
// be the tree the consuming engine operates on (see algo.Config.Tree).
func (w *Windower) BindTree(t *hierarchy.Tree) { w.tree, w.memo = t, nil }

// memoSlot is one entry of the path memo: a cached path slice, by its
// first element and length, and the leaf it interned to.
type memoSlot struct {
	first *string
	n     int32
	id    int32
}

// leaf returns the node ID r's path interns to, or -1 for a path the
// tree refuses: from the memo when r is a cached record whose slice
// the handle's slot holds, by Tree.Intern otherwise.
//
//tiresias:hotpath
func (w *Windower) leaf(r Record) int {
	if r.ref != 0 && len(r.Path) > 0 && len(w.memo) > 0 {
		s := &w.memo[r.ref&uint32(len(w.memo)-1)]
		if s.first == &r.Path[0] && int(s.n) == len(r.Path) {
			return int(s.id)
		}
	}
	return w.intern(r)
}

// intern is leaf's miss path: Tree.Intern, then the memo slot of a
// cached record, after fitting the memo to the tree.
func (w *Windower) intern(r Record) int {
	id := w.tree.Intern(r.Path)
	if id < 0 || r.ref == 0 || len(r.Path) == 0 {
		return id
	}
	if n := min(w.tree.Len(), wirerec.PathCacheCap); len(w.memo) < n {
		w.memo = make([]memoSlot, 1<<bits.Len(uint(n-1)))
	}
	w.memo[r.ref&uint32(len(w.memo)-1)] = memoSlot{&r.Path[0], int32(len(r.Path)), int32(id)}
	return id
}

// maxDensePool bounds the recycle pool and the emission buffer's
// retained capacity: the steady state needs one or two units in
// flight, so anything beyond this came from a rare gap-filling burst
// and is better returned to the GC than pinned per stream forever.
const maxDensePool = 16

// reclaimDense recycles the units handed out by the previous dense
// call.
func (w *Windower) reclaimDense() {
	for _, u := range w.dbuf {
		if len(w.free) >= maxDensePool {
			break
		}
		u.Reset()
		w.free = append(w.free, u)
	}
	if cap(w.dbuf) > maxDensePool {
		w.dbuf = nil
		return
	}
	w.dbuf = w.dbuf[:0]
}

// nextDense returns an empty unit, preferring the recycle pool.
func (w *Windower) nextDense() *algo.DenseUnit {
	if n := len(w.free); n > 0 {
		u := w.free[n-1]
		w.free = w.free[:n-1]
		return u
	}
	return &algo.DenseUnit{}
}

// ObserveDense adds a record, returning every timeunit completed
// strictly before the record's own unit (empty units are included so
// seasonal indexing stays aligned). The record's path resolves
// straight to a node ID — through the memo for a cached record, by
// Tree.Intern otherwise; no Key string is built — and is counted into
// a pooled DenseUnit. A record out of time order, past the gap bound, or
// whose path the tree refuses (see hierarchy.ValidLabel) is rejected
// with neither the windowing position nor the tree changed. The
// returned units are valid until the next ObserveDense/FlushDense
// call; in the steady state the call performs zero allocations.
// BindTree must have been called.
//
//tiresias:hotpath
func (w *Windower) ObserveDense(r Record) ([]*algo.DenseUnit, error) {
	if w.tree == nil {
		return nil, errors.New("stream: ObserveDense before BindTree") //tiresias:ignore hotpath (cold misuse guard, unreachable after BindTree)
	}
	w.reclaimDense()
	start, err := w.anchor(r.Time)
	if err != nil {
		return nil, err
	}
	id := w.leaf(r)
	if id < 0 {
		return nil, errBadPath
	}
	w.start, w.began = start, true
	if w.dcur == nil {
		w.dcur = w.nextDense() //tiresias:ignore hotpath (inlined pool miss: the steady state recycles from w.free)
	}
	for !r.Time.Before(w.start.Add(w.delta)) {
		w.dbuf = append(w.dbuf, w.dcur)
		w.dcur = w.nextDense() //tiresias:ignore hotpath (inlined pool miss: the steady state recycles from w.free)
		w.start = w.start.Add(w.delta)
	}
	w.dcur.Add(id, 1)
	return w.dbuf, nil
}

// FlushDense completes and returns the current timeunit (which may be
// empty) and resets it. Like ObserveDense's result, the returned unit
// is valid until the next ObserveDense/FlushDense call.
//
//tiresias:hotpath
func (w *Windower) FlushDense() *algo.DenseUnit {
	w.reclaimDense()
	u := w.dcur
	if u == nil {
		u = w.nextDense() //tiresias:ignore hotpath (inlined pool miss: the steady state recycles from w.free)
	}
	w.dcur = w.nextDense() //tiresias:ignore hotpath (inlined pool miss: the steady state recycles from w.free)
	w.start = w.start.Add(w.delta)
	w.dbuf = append(w.dbuf, u) // recycled on the next dense call
	return u
}
