package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// A span's self time is its duration minus what its children cover:
// overlapping children count once, and a child counts only inside
// its parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.ingest", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "httpserve.handler", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "tiresias.feed", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "tiresias.feed", Start: 30, End: 50},      // overlaps span 3
		{ID: 5, Parent: 1, Name: "httpserve.handler", Start: 90, End: 130}, // runs past its parent
		{ID: 6, Name: "client.watch", Start: 0, End: 7},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"client.ingest":     100 - 50 - 10,  // children cover [10,60] and [90,100]
		"httpserve.handler": (50 - 30) + 40, // span 2 minus [20,50]; span 5 whole
		"tiresias.feed":     20 + 20,
		"client.watch":      7,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times %v, want %d names", got, len(want))
	}
}

// The middleware parents the handler span on the client span carrying
// the same body sequence number, and leaves other requests alone.
func TestMiddlewareLinksSpansBySequence(t *testing.T) {
	tr := newTracer()
	parent := tr.begin("client.ingest", 0, 42)
	h := tr.middleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))

	req := httptest.NewRequest(http.MethodPost, "/v2/records", nil)
	req.Header.Set(seqHeader, "42")
	h.ServeHTTP(httptest.NewRecorder(), req)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v2/stats", nil))
	tr.end(parent)

	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2 (ingest and its handler)", len(tr.spans))
	}
	hs := tr.spans[1]
	if hs.Name != "httpserve.handler" || hs.Parent != parent || hs.Seq != 42 {
		t.Errorf("handler span = %+v, want parent %d and seq 42", hs, parent)
	}
	if hs.End < hs.Start || tr.spans[0].End < hs.End {
		t.Errorf("spans not nested in time: %+v", tr.spans)
	}
}

func TestRebasedSpansShareClockAndIDs(t *testing.T) {
	a, b := newTracer(), newTracer()
	b.t0 = a.t0.Add(time.Second)
	a.add(span{Name: "x"})
	b.add(span{Name: "y", Start: 5, End: 9})
	got := b.rebased(a)
	if len(got) != 1 || got[0].ID != 2 || got[0].Start != int64(time.Second)+5 || got[0].End != int64(time.Second)+9 {
		t.Errorf("rebased = %+v", got)
	}
}
