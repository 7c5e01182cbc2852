package httpserve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tiresias"
	"tiresias/api"
)

// hubEntries returns n entries with consecutive seqs from first.
func hubEntries(n int, first uint64) []tiresias.AnomalyEntry {
	out := make([]tiresias.AnomalyEntry, n)
	for i := range out {
		out[i] = tiresias.AnomalyEntry{Seq: first + uint64(i), Stream: "ccd", Anomaly: goldenAnomaly(i)}
	}
	return out
}

// wantFrame is the frame json.Marshal and api.Cursor define for e.
func wantFrame(t testing.TB, epoch uint64, e tiresias.AnomalyEntry) string {
	t.Helper()
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return "id: " + api.Cursor(epoch, e.Seq) + "\nevent: " + api.EventAnomaly + "\ndata: " + string(raw) + "\n\n"
}

// TestHubSharesOneFramePerEntry: every subscriber receives the same
// frame bytes for an entry — one rendering, not one per watcher.
func TestHubSharesOneFramePerEntry(t *testing.T) {
	h := newHub(42)
	subs := make([]*subscriber, 4)
	for i := range subs {
		subs[i] = h.subscribe(8)
	}
	entries := hubEntries(3, 7)
	h.publish(entries)
	for _, e := range entries {
		want := wantFrame(t, 42, e)
		first := <-subs[0].ch
		if string(first.frame) != want || first.entry != e {
			t.Fatalf("subscriber 0 got %q for seq %d, want %q", first.frame, e.Seq, want)
		}
		for i, s := range subs[1:] {
			ev := <-s.ch
			if &ev.frame[0] != &first.frame[0] || len(ev.frame) != len(first.frame) {
				t.Fatalf("subscriber %d got its own rendering of seq %d", i+1, e.Seq)
			}
		}
	}
}

// TestHubRendersNothingUnwatched: with no subscribers a publish
// renders no frame.
func TestHubRendersNothingUnwatched(t *testing.T) {
	h := newHub(1)
	h.publish(hubEntries(4, 1))
	if h.chunk != nil {
		t.Fatalf("unwatched publish rendered %d bytes", len(h.chunk))
	}
}

// TestHubPublishAllocs pins the fan-out's steady-state cost: with four
// watchers, a publish allocates only the amortized chunk refills.
func TestHubPublishAllocs(t *testing.T) {
	const batch = 64
	h := newHub(1 << 40)
	subs := make([]*subscriber, 4)
	for i := range subs {
		subs[i] = h.subscribe(batch)
	}
	entries := hubEntries(batch, 1)
	publish := func() {
		h.publish(entries)
		for _, s := range subs {
			for range batch {
				<-s.ch
			}
		}
	}
	publish()
	perEntry := testing.AllocsPerRun(50, publish) / batch
	if perEntry > 0.05 {
		t.Fatalf("publish with 4 watchers: %.3f allocations per entry, want <= 0.05", perEntry)
	}
}

// TestWatchFlushesOncePerBurst: frames already buffered when the live
// loop wakes are written back to back and flushed once.
func TestWatchFlushesOncePerBurst(t *testing.T) {
	cfg := testConfig()
	cfg.WatchHeartbeat = time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newGatedWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v2/anomalies/watch", nil))
	}()
	waitFor(t, "the live phase", func() bool { out, _ := w.snapshot(); return strings.Contains(out, ": live\n\n") })
	_, before := w.snapshot()

	// Park the loop on the first entry's write and buffer k-1 more
	// behind it. Closing the hub then ends the stream once the loop
	// has drained its buffer, so every flush it makes is counted.
	const k = 8
	entries := hubEntries(k, 1)
	w.gate.Lock()
	s.hub.publish(entries[:1])
	waitFor(t, "the watch loop to take the entry", func() bool { return hubDrained(s.hub) })
	s.hub.publish(entries[1:])
	s.hub.closeAll()
	w.gate.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not end after the hub closed")
	}

	out, after := w.snapshot()
	if after-before != 1 {
		t.Fatalf("%d buffered frames took %d flushes, want 1", k, after-before)
	}
	var want strings.Builder
	for _, e := range entries {
		want.WriteString(wantFrame(t, s.ix.Epoch(), e))
	}
	if !strings.HasSuffix(out, ": live\n\n"+want.String()) {
		t.Fatalf("burst bytes:\n%s\nwant:\n%s", out, want.String())
	}
}

// TestWatchEndsOnUnencodableEntry: an entry encoding/json rejects ends
// each watcher's stream after the frames before it, as a failed
// json.Marshal of it always has.
func TestWatchEndsOnUnencodableEntry(t *testing.T) {
	cfg := testConfig()
	cfg.WatchHeartbeat = time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := newGatedWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v2/anomalies/watch", nil))
	}()
	waitFor(t, "the live phase", func() bool { out, _ := w.snapshot(); return strings.Contains(out, ": live\n\n") })

	entries := hubEntries(3, 1)
	entries[1].Time = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	s.hub.publish(entries)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not end on an unencodable entry")
	}
	out, _ := w.snapshot()
	if want := ": live\n\n" + wantFrame(t, s.ix.Epoch(), entries[0]); !strings.HasSuffix(out, want) {
		t.Fatalf("stream ended with:\n%s\nwant suffix:\n%s", out, want)
	}
}

// TestWatchFourConcurrentWatchers runs four watchers over a real
// listener while the pipeline's shard workers publish bursts; under
// -race this checks the shared frames are only ever read. Every
// watcher must see the same events, byte for byte.
func TestWatchFourConcurrentWatchers(t *testing.T) {
	cfg := testConfig()
	cfg.WatchHeartbeat = 20 * time.Millisecond
	cfg.QueueDepth, cfg.Shards = 8, 4 // publishes come from the shard workers
	_, ts := newTestServer(t, cfg)

	const watchers = 4
	streams := make([]<-chan sseEvent, watchers)
	for i := range streams {
		resp, err := http.Get(ts.URL + "/v2/anomalies/watch")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		streams[i] = readSSE(resp.Body)
	}
	for i := range 4 {
		post(t, ts.URL+"/v2/records?wait=true", "application/x-ndjson", ndjsonBody(fmt.Sprintf("s%d", i), 30), nil)
	}
	var st api.StatsResponse
	get(t, ts.URL+"/v2/stats", &st)
	want := int(st.Index.Added)
	if want == 0 {
		t.Fatal("no anomalies to watch")
	}

	got := make([][]sseEvent, watchers)
	deadline := time.After(5 * time.Second)
	for i, events := range streams {
		for len(got[i]) < want {
			select {
			case ev, ok := <-events:
				if !ok {
					t.Fatalf("watcher %d ended after %d/%d events", i, len(got[i]), want)
				}
				if ev.name == api.EventAnomaly {
					got[i] = append(got[i], ev)
				}
			case <-deadline:
				t.Fatalf("watcher %d timed out after %d/%d events", i, len(got[i]), want)
			}
		}
	}
	for i := 1; i < watchers; i++ {
		for j := range got[0] {
			if got[i][j] != got[0][j] {
				t.Fatalf("watcher %d event %d = %+v, watcher 0 saw %+v", i, j, got[i][j], got[0][j])
			}
		}
	}
}

// FuzzSSEFrame holds the anomaly frame encoder to its definition: for
// every entry json.Marshal accepts, the frame is "id: " +
// api.Cursor(epoch, seq) + "\nevent: anomaly\ndata: " +
// json.Marshal(entry) + "\n\n"; every entry it rejects, the encoder
// rejects too.
func FuzzSSEFrame(f *testing.F) {
	f.Add(uint64(1), uint64(2), "ccd", "vho1\x1fio2", 2, 40, int64(1284422400), int64(0), 0, 50.25, 1.5)
	f.Fuzz(func(t *testing.T, epoch, seq uint64, stream, key string, depth, instance int,
		sec, nsec int64, zone int, actual, forecast float64) {
		e := tiresias.AnomalyEntry{Seq: seq, Stream: stream, Anomaly: tiresias.Anomaly{
			Key:      tiresias.Key(key),
			Depth:    depth,
			Instance: instance,
			Time:     time.Unix(sec, nsec).In(time.FixedZone("", zone)),
			Actual:   actual,
			Forecast: forecast,
		}}
		got, err := appendFrame([]byte("prefix"), epoch, &e)
		raw, jerr := json.Marshal(e)
		if jerr != nil {
			if err == nil {
				t.Fatalf("encoder accepted what json.Marshal rejects (%v): %q", jerr, got)
			}
			if string(got) != "prefix" {
				t.Fatalf("failed encode extended the buffer: %q", got)
			}
			return
		}
		if err != nil {
			t.Fatalf("encoder rejected what json.Marshal accepts: %v", err)
		}
		want := "prefix" + "id: " + api.Cursor(epoch, seq) + "\nevent: " + api.EventAnomaly + "\ndata: " + string(raw) + "\n\n"
		if string(got) != want {
			t.Fatalf("frame mismatch:\ngot  %q\nwant %q", got, want)
		}
		if len(got)-len("prefix") > frameBound(&e) {
			t.Fatalf("frame of %d bytes exceeds its bound %d", len(got)-len("prefix"), frameBound(&e))
		}
	})
}
