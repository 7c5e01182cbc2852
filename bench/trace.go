package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own files, around its calls into each layer;
// the program itself carries none.
type span struct {
	// ID numbers spans from 1; Parent is the span that caused this
	// one, 0 for none.
	ID     int `json:"id"`
	Parent int `json:"parent,omitempty"`
	// Name is layer.operation, e.g. "httpserve.handler".
	Name string `json:"name"`
	// Seq is the body sequence number shared by the spans of one
	// request, 0 when the span belongs to no single body.
	Seq int64 `json:"seq,omitempty"`
	// Unit is the absolute timeunit index of unit-level spans.
	Unit int `json:"unit,omitempty"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	bySeq map[int64]int // body sequence number → its client.ingest span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), bySeq: map[int64]int{}}
}

// at converts a wall-clock instant to trace time.
func (t *tracer) at(when time.Time) int64 { return int64(when.Sub(t.t0)) }

// add records a finished span and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span now; end closes it. A client.ingest span is
// remembered under its sequence number so the server side can name it
// as parent.
func (t *tracer) begin(name string, parent int, seq int64) int {
	id := t.add(span{Name: name, Parent: parent, Seq: seq, Start: t.at(time.Now())})
	if name == "client.ingest" {
		t.mu.Lock()
		t.bySeq[seq] = id
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) end(id int) {
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// middleware wraps the served handler with an httpserve.handler span
// per ingest request, parented on the client span of the same body.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
		if err != nil || r.URL.Path != "/v2/records" {
			next.ServeHTTP(w, r)
			return
		}
		t.mu.Lock()
		parent := t.bySeq[seq]
		t.mu.Unlock()
		id := t.begin("httpserve.handler", parent, seq)
		next.ServeHTTP(w, r)
		t.end(id)
	})
}

// selfTimes sums, per span name, each span's duration minus the part
// of it its child spans cover. Overlapping children are counted once;
// a child reaching outside its parent only counts inside it.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// durations returns the sorted durations, in ms, of the spans with
// the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	sort.Float64s(out)
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
