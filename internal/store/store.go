// Package store implements the queryable anomaly index behind the
// serving layer: a concurrency-safe, bounded ring buffer of detected
// anomalies tagged with their stream of origin. It is the one anomaly
// store of the paper's Steps 5–6 — recent detections kept in memory at
// fixed cost, queryable by stream, time range, and hierarchy subtree,
// with eviction accounted for rather than hidden. On disk, detections
// are JSON lines (the root package's JSONSink and ReadAnomalies),
// which a server preloads into the index as history.
//
// The index is the natural sink for a pipelined Manager: workers
// append under their own locks, dashboards and pollers read
// concurrently, and when the buffer is full the oldest entries are
// evicted (and counted) instead of growing without bound.
package store

import (
	"sort"
	"sync"
	"time"

	"tiresias/internal/detect"
	"tiresias/internal/hierarchy"
)

// DefaultCapacity bounds an Index built with New(0).
const DefaultCapacity = 65536

// Entry is one indexed anomaly: the detection itself plus the stream
// it came from and a monotonically increasing sequence number assigned
// at insertion. Seq orders entries across streams and supports
// incremental polling (Query.Since).
type Entry struct {
	// Seq is the insertion sequence number, unique and increasing
	// for the lifetime of the Index (never reused after eviction).
	Seq uint64 `json:"seq"`
	// Stream names the originating stream ("" for a bare detector).
	Stream string `json:"stream"`
	detect.Anomaly
}

// Stats describes the occupancy and loss accounting of an Index.
type Stats struct {
	// Capacity is the fixed maximum number of retained entries.
	Capacity int `json:"capacity"`
	// Len is the number of entries currently retained.
	Len int `json:"len"`
	// Added is the total number of entries ever inserted.
	Added uint64 `json:"added"`
	// Evicted is the number of entries overwritten by newer ones;
	// Added - Evicted == Len.
	Evicted uint64 `json:"evicted"`
	// OldestSeq is the sequence number of the oldest retained entry
	// (0 when the index is empty): the eviction horizon. A cursor
	// below OldestSeq-1 has missed entries that can no longer be
	// served.
	OldestSeq uint64 `json:"oldestSeq"`
	// Epoch identifies this index instance. Sequence numbers are
	// only comparable within one epoch: a fresh index (e.g. after a
	// server restart) restarts Seq from 1 under a new Epoch, so a
	// cursor carrying a different epoch must be treated as invalid
	// rather than silently reapplied.
	Epoch uint64 `json:"epoch"`
}

// Index is a bounded, concurrency-safe anomaly ring buffer. Insertion
// order is retention order: when full, each Add evicts the oldest
// entry. The zero value is not usable; construct with New.
type Index struct {
	mu  sync.RWMutex
	buf []Entry // grows to cap, then wraps; guarded by mu
	cap int     // immutable after New

	start int // position of the oldest entry once wrapped; guarded by mu
	count int // guarded by mu

	added   uint64 // guarded by mu
	evicted uint64 // guarded by mu
	seq     uint64 // guarded by mu

	epoch uint64 // immutable after New
}

// New returns an empty Index retaining at most capacity entries;
// capacity <= 0 selects DefaultCapacity. The buffer grows lazily, so
// a large capacity costs memory only as entries accumulate. Each
// Index gets a fresh Epoch, scoping its sequence numbers.
func New(capacity int) *Index {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Index{cap: capacity, epoch: uint64(time.Now().UnixNano())}
}

// Epoch identifies this index instance; see Stats.Epoch.
func (x *Index) Epoch() uint64 { return x.epoch }

// Add inserts anomalies from the named stream, evicting the oldest
// entries if the index is full, and returns the inserted entries with
// their assigned sequence numbers (the caller owns the slice) — the
// hook live subscription fan-outs build on. Safe for concurrent use.
func (x *Index) Add(stream string, anoms ...detect.Anomaly) []Entry {
	if len(anoms) == 0 {
		return nil
	}
	out := make([]Entry, 0, len(anoms))
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, a := range anoms {
		x.seq++
		e := Entry{Seq: x.seq, Stream: stream, Anomaly: a}
		if x.count < x.cap {
			x.buf = append(x.buf, e)
			x.count++
		} else {
			x.buf[x.start] = e
			x.start = (x.start + 1) % x.cap
			x.evicted++
		}
		x.added++
		out = append(out, e)
	}
	return out
}

// at returns the i-th retained entry, oldest first (0 <= i < count).
// The lock must be held.
func (x *Index) at(i int) Entry {
	return x.buf[(x.start+i)%len(x.buf)]
}

// Len returns the number of retained entries.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.count
}

// Stats returns a point-in-time occupancy snapshot.
func (x *Index) Stats() Stats {
	x.mu.RLock()
	defer x.mu.RUnlock()
	s := Stats{Capacity: x.cap, Len: x.count, Added: x.added, Evicted: x.evicted, Epoch: x.epoch}
	if x.count > 0 {
		s.OldestSeq = x.at(0).Seq
	}
	return s
}

// Query filters retained entries. Zero-valued fields match everything.
type Query struct {
	// Stream restricts to one stream name ("" matches all).
	Stream string
	// Under restricts to the hierarchy subtree rooted at this key
	// (inclusive).
	Under hierarchy.Key
	// From/To bound the anomaly timestamp: From inclusive, To
	// exclusive; a zero time leaves that side unbounded. Entries
	// with a zero Time (no wall-clock anchor) only match unbounded
	// ranges.
	From, To time.Time
	// Since restricts to entries with Seq > Since — the incremental
	// polling cursor: pass the largest Seq already seen.
	Since uint64
	// Limit caps the number of returned entries; <= 0 means all.
	Limit int
}

// Matches reports whether e satisfies every filter of q — the single
// definition of query semantics, shared by Query, PageAfter, and the
// serving layer's live watch filter (so replayed and live entries
// can never disagree on what matches).
func (q Query) Matches(e Entry) bool {
	if q.Stream != "" && e.Stream != q.Stream {
		return false
	}
	if q.Under != "" && !q.Under.IsAncestorOf(e.Key) {
		return false
	}
	if e.Time.IsZero() {
		// No wall-clock anchor: matches only unbounded ranges, per
		// the Query contract.
		if !q.From.IsZero() || !q.To.IsZero() {
			return false
		}
	} else {
		if !q.From.IsZero() && e.Time.Before(q.From) {
			return false
		}
		if !q.To.IsZero() && !e.Time.Before(q.To) {
			return false
		}
	}
	if e.Seq <= q.Since {
		return false
	}
	return true
}

// Page is one forward (oldest-first) page of entries, the unit of
// cursor pagination: repeated calls with Next fed back as Query.Since
// walk every retained matching entry exactly once, in ascending
// sequence order, even while new entries are being added.
type Page struct {
	// Entries are the matching entries, oldest first (ascending Seq).
	Entries []Entry
	// Next is the resume cursor: pass it as the next page's
	// Query.Since. When More is false, Next has advanced past every
	// retained entry examined, so polling with it never rescans.
	Next uint64
	// More reports whether retained entries beyond Next remain (the
	// page filled before the scan reached the newest entry).
	More bool
	// Missed counts entries that matched the cursor range but were
	// evicted before this call: the entries with sequence numbers in
	// (Since, OldestSeq) that no longer exist. A non-zero Missed
	// means the cursor predates the eviction horizon and the walk
	// has lost data — reported, never silently skipped.
	Missed uint64
}

// PageAfter returns the next page of entries matching q, oldest
// first, starting strictly after the q.Since cursor. q.Limit bounds
// the page size (<= 0 means all retained entries). Unlike Query —
// which keeps the *newest* matches when limited — PageAfter keeps the
// oldest, which is what makes feeding Page.Next back as Since a
// complete, duplicate-free forward walk.
func (x *Index) PageAfter(q Query) Page {
	x.mu.RLock()
	defer x.mu.RUnlock()
	p := Page{Next: q.Since}
	if x.count == 0 {
		return p
	}
	oldest := x.at(0).Seq
	if q.Since+1 < oldest {
		// Sequence numbers are contiguous, so the evicted range
		// (Since, oldest) is exactly countable.
		p.Missed = oldest - 1 - q.Since
	}
	// Entries are stored in ascending Seq order; binary-search the
	// first one past the cursor.
	i := sort.Search(x.count, func(i int) bool { return x.at(i).Seq > q.Since })
	for ; i < x.count; i++ {
		e := x.at(i)
		if q.Matches(e) {
			p.Entries = append(p.Entries, e)
		}
		p.Next = e.Seq
		if q.Limit > 0 && len(p.Entries) == q.Limit {
			p.More = i+1 < x.count
			break
		}
	}
	return p
}

// Query returns the matching entries, newest first (descending Seq).
// A Limit keeps the newest matches. The result is a copy; the caller
// owns it.
func (x *Index) Query(q Query) []Entry {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []Entry
	for i := x.count - 1; i >= 0; i-- {
		e := x.at(i)
		if e.Seq <= q.Since {
			break // entries are seq-ordered; nothing older matches
		}
		if q.Matches(e) {
			out = append(out, e)
			if q.Limit > 0 && len(out) == q.Limit {
				break
			}
		}
	}
	return out
}
