package httpserve

import (
	"bytes"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tiresias"
	"tiresias/api"
)

var updateWatch = flag.Bool("update-watch", false, "rewrite testdata/watch.golden from the current watch stream")

// gatedWriter is a streaming ResponseWriter whose writes can be
// stalled: a test holds gate to park the watch loop mid-write while
// the hub fills (and overflows) the subscriber buffer behind it.
type gatedWriter struct {
	hdr     http.Header
	gate    sync.Mutex // held by the test to stall Write
	mu      sync.Mutex
	buf     bytes.Buffer // guarded by mu
	flushes int          // guarded by mu
}

func newGatedWriter() *gatedWriter { return &gatedWriter{hdr: http.Header{}} }

func (g *gatedWriter) Header() http.Header { return g.hdr }

func (g *gatedWriter) WriteHeader(int) {}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.gate.Lock()
	defer g.gate.Unlock()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

func (g *gatedWriter) Flush() {
	g.mu.Lock()
	g.flushes++
	g.mu.Unlock()
}

// snapshot returns the bytes written so far and the flush count.
func (g *gatedWriter) snapshot() (string, int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.String(), g.flushes
}

// waitFor polls until cond holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// hubDrained reports whether every subscriber's buffer is empty (the
// watch loop has taken everything published so far).
func hubDrained(h *hub) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for s := range h.subs {
		if len(s.ch) > 0 {
			return false
		}
	}
	return len(h.subs) > 0
}

// goldenAnomaly is an anomaly whose JSON exercises the encoder's
// corners: \x1f key separators, escapes, tiny and huge floats.
func goldenAnomaly(i int) tiresias.Anomaly {
	at := time.Date(2010, 9, 14, 0, i, 0, 0, time.UTC)
	return tiresias.Anomaly{
		Key:      tiresias.Key("vho1\x1fio" + strconv.Itoa(i)),
		Depth:    2,
		Instance: 40 + i,
		Time:     at,
		Actual:   float64(50+i) + 0.25,
		Forecast: 1.5 / float64(i+1),
	}
}

// TestWatchStreamGolden pins the watch stream's wire bytes across its
// three phases: a replay from the index, live entries from the hub,
// and a lagged disconnect. Heartbeat and `live` comments are timing,
// not content, and are stripped; the index epoch is normalized.
func TestWatchStreamGolden(t *testing.T) {
	cfg := testConfig()
	cfg.WatchBuffer = 4
	cfg.WatchHeartbeat = time.Hour
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Replay phase: detector output, plus history entries whose
	// strings and floats need escaping and exponent forms.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v2/records", strings.NewReader(ndjsonBody("ccd", 30)))
	req.Header.Set("Content-Type", "application/x-ndjson")
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d %s", rec.Code, rec.Body)
	}
	odd := []tiresias.Anomaly{goldenAnomaly(1), goldenAnomaly(2), goldenAnomaly(3)}
	odd[0].Key = `a<b>&"c"\d` + "\x01\x7f\x1f"
	odd[1].Actual, odd[1].Forecast = 1e21, 1e-7
	odd[2].Actual, odd[2].Forecast = math.Copysign(0, -1), 123456789.125
	odd[2].Time = time.Date(2010, 9, 14, 1, 2, 3, 4500, time.FixedZone("", -(3*3600+30*60)))
	s.ix.Add("hist<&>", odd...)
	horizon := s.ix.Stats().Added

	w := newGatedWriter()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v2/anomalies/watch", nil))
	}()
	waitFor(t, "the live phase", func() bool { out, _ := w.snapshot(); return strings.Contains(out, ": live\n\n") })

	live := func(seq uint64, stream string, a tiresias.Anomaly) tiresias.AnomalyEntry {
		return tiresias.AnomalyEntry{Seq: seq, Stream: stream, Anomaly: a}
	}
	// Live phase: a duplicate of the replay horizon (skipped), then
	// entries with non-ASCII, invalid UTF-8 and U+2028 strings.
	seq := horizon
	batch := []tiresias.AnomalyEntry{live(horizon, "dup", goldenAnomaly(0))}
	for i, stream := range []string{"naïve", "bad\xffutf8", "line\u2028sep"} {
		seq++
		batch = append(batch, live(seq, stream, goldenAnomaly(4+i)))
	}
	s.hub.publish(batch)
	lastID := "id: " + s.cursor(seq) + "\n"
	waitFor(t, "the live batch", func() bool { out, _ := w.snapshot(); return strings.Contains(out, lastID) })

	// Lag: stall the watch loop mid-write on one entry, then publish
	// two more than its buffer holds.
	w.gate.Lock()
	seq++
	s.hub.publish([]tiresias.AnomalyEntry{live(seq, "ccd", goldenAnomaly(7))})
	waitFor(t, "the watch loop to take the entry", func() bool { return hubDrained(s.hub) })
	var flood []tiresias.AnomalyEntry
	for i := range cfg.WatchBuffer + 2 {
		seq++
		flood = append(flood, live(seq, "ccd", goldenAnomaly(8+i)))
	}
	s.hub.publish(flood)
	w.gate.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("watch did not end after the lagged event")
	}

	out, _ := w.snapshot()
	out = strings.ReplaceAll(out, ": live\n\n", "")
	out = strings.ReplaceAll(out, ": hb\n\n", "")
	out = strings.ReplaceAll(out, "c"+strconv.FormatUint(s.ix.Epoch(), 36)+".", "cEPOCH.")
	golden := filepath.Join("testdata", "watch.golden")
	if *updateWatch {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("watch stream bytes differ from %s:\ngot:\n%s\nwant:\n%s", golden, out, want)
	}
	if !strings.Contains(out, "event: "+api.EventLagged+"\n") {
		t.Fatal("golden stream has no lagged event")
	}
}
