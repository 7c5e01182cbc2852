package httpserve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
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
	"tiresias/internal/checkpoint"
)

// testConfig returns a Config tuned for fast detection in tests: one
// minute units, an 8-unit window, sensitive thresholds.
func testConfig() Config {
	return Config{
		Delta:      time.Minute,
		WindowLen:  8,
		Theta:      0.5,
		Thresholds: tiresias.Thresholds{RT: 2, DT: 5},
	}
}

// newTestServer builds a Server over cfg and serves it from a real
// listener (SSE needs streaming, which httptest's recorder lacks).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

// TestNewRefusesBadDetectorOptions: a detector option outside its
// range fails New, not the first stream's warm-up a window later.
func TestNewRefusesBadDetectorOptions(t *testing.T) {
	if s, err := New(Config{Theta: -1}); err == nil {
		_ = s.Close()
		t.Fatal("New accepted theta -1")
	} else if !strings.Contains(err.Error(), "WithTheta") {
		t.Fatalf("error %q does not name the option", err)
	}
}

// TestNewRefusesNegativeLimits: a negative body cap, page cap or watch
// buffer fails New. Accepted, each broke every request it bounds: every
// ingest body a 413, every page all retained entries, every watch a
// contained panic.
func TestNewRefusesNegativeLimits(t *testing.T) {
	for name, cfg := range map[string]Config{
		"MaxBodyBytes": {MaxBodyBytes: -1},
		"PageLimit":    {PageLimit: -1},
		"WatchBuffer":  {WatchBuffer: -1},
	} {
		if s, err := New(cfg); err == nil {
			_ = s.Close()
			t.Errorf("New accepted %s -1", name)
		} else if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}

// ndjsonBody renders records as NDJSON: warmupUnits steady minutes on
// one stream, a 50-record burst, and a boundary-crossing closer.
func ndjsonBody(streamName string, warmupUnits int) string {
	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	var b strings.Builder
	line := func(at time.Time) {
		fmt.Fprintf(&b, `{"stream":%q,"path":["vho1","io2"],"time":%q}`+"\n", streamName, at.Format(time.RFC3339))
	}
	for u := 0; u < warmupUnits; u++ {
		line(base.Add(time.Duration(u) * time.Minute))
	}
	for i := 0; i < 50; i++ {
		line(base.Add(time.Duration(warmupUnits) * time.Minute))
	}
	line(base.Add(time.Duration(warmupUnits+1) * time.Minute))
	return b.String()
}

// post posts body and decodes a 200 response into out (if non-nil).
func post(t *testing.T, url, contentType, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// get fetches url and decodes a 200 response into out (if non-nil).
func get(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

// decodeError decodes a structured /v2 error body.
func decodeError(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("error body did not decode: %v", err)
	}
	if er.Error == nil {
		t.Fatal("error envelope missing")
	}
	return er.Error
}

func TestV2IngestDetectsAndPaginates(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	var ing api.IngestResponse
	resp := post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("ccd", 30), &ing)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	if ing.Accepted != 81 || ing.Queued || len(ing.Anomalies) == 0 {
		t.Fatalf("ingest = %+v", ing)
	}

	// Page through /v2/anomalies one entry at a time; the walk must
	// be ascending, complete, and end without a next_cursor.
	var seqs []uint64
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 50 {
			t.Fatal("pagination did not terminate")
		}
		var page api.AnomaliesPage
		if r := get(t, ts.URL+"/v2/anomalies?stream=ccd&limit=1&cursor="+cursor, &page); r.StatusCode != http.StatusOK {
			t.Fatalf("page status = %d", r.StatusCode)
		}
		if page.Missed != 0 {
			t.Fatalf("live walk reported missed = %d", page.Missed)
		}
		for _, e := range page.Entries {
			seqs = append(seqs, e.Seq)
		}
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(seqs) != len(ing.Anomalies) {
		t.Fatalf("paged %d entries, ingest reported %d anomalies", len(seqs), len(ing.Anomalies))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("page walk not ascending: %v", seqs)
		}
	}
}

func TestV2StructuredErrors(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"garbage", `{not json`, 400, api.CodeBadRequest},
		{"empty path", `{"path":[],"time":"2010-09-14T00:00:00Z"}`, 400, api.CodeInvalidRecord},
		{"missing time", `{"path":["a"]}`, 400, api.CodeInvalidRecord},
	} {
		resp := post(t, ts.URL+"/v2/records", "application/json", tc.body, nil)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
		if e := decodeError(t, resp); e.Code != tc.code {
			t.Fatalf("%s: code = %q, want %q", tc.name, e.Code, tc.code)
		}
	}
	// Out-of-order is a mid-feed error carrying the accepted count
	// and mapping the tiresias sentinel code.
	post(t, ts.URL+"/v2/records", "application/json", `{"path":["a"],"time":"2010-09-14T01:00:00Z"}`, nil)
	resp := post(t, ts.URL+"/v2/records", "application/json", `{"path":["a"],"time":"2009-01-01T00:00:00Z"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-order status = %d", resp.StatusCode)
	}
	e := decodeError(t, resp)
	if e.Code != api.CodeOutOfOrder {
		t.Fatalf("out-of-order code = %q", e.Code)
	}
	if got, ok := e.Details["accepted"]; !ok || got != float64(0) {
		t.Fatalf("out-of-order details = %+v", e.Details)
	}
	// Oversized bodies carry the body_too_large code.
	big := "[" + strings.Repeat(" ", 9<<20) + "]"
	resp = post(t, ts.URL+"/v2/records", "application/json", big, nil)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized status = %d", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeBodyTooLarge {
		t.Fatalf("oversized code = %q", e.Code)
	}
	// Bad query parameters on /v2/anomalies.
	for _, bad := range []string{"?cursor=zzz!", "?limit=0", "?limit=ten", "?from=yesterday"} {
		resp := get(t, ts.URL+"/v2/anomalies"+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
		if e := decodeError(t, resp); e.Code != api.CodeBadRequest {
			t.Fatalf("%s: code = %q", bad, e.Code)
		}
	}
}

// gateSink blocks the pipeline worker inside detection so the tests
// can fill its queue deterministically.
type gateSink struct {
	arrived chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func (g *gateSink) OnAnomaly(tiresias.Anomaly) {}
func (g *gateSink) OnUnit(tiresias.UnitEvent) {
	g.once.Do(func() {
		g.arrived <- struct{}{}
		<-g.gate
	})
}

func TestQueueFull429HasRetryAfterAndStructuredBody(t *testing.T) {
	gs := &gateSink{arrived: make(chan struct{}), gate: make(chan struct{})}
	cfg := testConfig()
	cfg.Shards = 1
	cfg.QueueDepth = 1
	cfg.Backpressure = tiresias.ErrorWhenFull
	cfg.RetryAfter = 3 * time.Second
	cfg.DetectorOptions = []tiresias.Option{tiresias.WithSink(gs)}
	_, ts := newTestServer(t, cfg)

	// Warm the stream and cross a unit boundary: the sink blocks the
	// worker inside the first processed unit.
	var ing api.IngestResponse
	resp := post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("s", 8), &ing)
	if resp.StatusCode != http.StatusOK || !ing.Queued {
		t.Fatalf("pipelined ingest = %d %+v", resp.StatusCode, ing)
	}
	<-gs.arrived // worker is now parked inside detection
	one := func(minute int) string {
		return fmt.Sprintf(`{"stream":"s","path":["vho1","io2"],"time":"2010-09-14T00:%02d:00Z"}`, minute)
	}
	// One batch fits in the depth-1 queue; the next must be rejected.
	var full *http.Response
	for i := 0; i < 2; i++ {
		full = post(t, ts.URL+"/v2/records", "application/json", one(10+i), nil)
		if full.StatusCode == http.StatusTooManyRequests {
			break
		}
		if full.StatusCode != http.StatusOK {
			t.Fatalf("fill request %d: status = %d", i, full.StatusCode)
		}
	}
	if full.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue never filled: status = %d", full.StatusCode)
	}
	if got := full.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want \"3\"", got)
	}
	e := decodeError(t, full)
	if e.Code != api.CodeQueueFull {
		t.Fatalf("429 code = %q, want %q", e.Code, api.CodeQueueFull)
	}
	close(gs.gate)
}

// shardOf mirrors the Manager's stream-to-shard hash (FNV-1a).
func shardOf(name string, shards int) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(shards))
}

// TestQueueFull429AcceptsNothing: a body whose streams sit on two
// shards, one of them with its queue held full, is refused whole — a
// 429 with nothing accepted, nothing of it queued or detected — so the
// client's retry of the body, once the queue drains, applies every
// record exactly once.
func TestQueueFull429AcceptsNothing(t *testing.T) {
	gs := &gateSink{arrived: make(chan struct{}), gate: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gs.gate) })
	cfg := testConfig()
	cfg.Shards = 2
	cfg.QueueDepth = 1
	cfg.Backpressure = tiresias.ErrorWhenFull
	cfg.DetectorOptions = []tiresias.Option{tiresias.WithSink(gs)}
	s, ts := newTestServer(t, cfg)
	t.Cleanup(release) // before Server.Close, which drains
	a, b := "a", "b"
	for shardOf(b, cfg.Shards) == shardOf(a, cfg.Shards) {
		b += "b"
	}
	line := func(stream string, minute int) string {
		return fmt.Sprintf(`{"stream":%q,"path":["vho1","io2"],"time":"2010-09-14T00:%02d:00Z"}`+"\n", stream, minute)
	}

	// Park a's worker inside detection, then fill its depth-1 queue.
	if resp := post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody(a, 8), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up: status %d", resp.StatusCode)
	}
	<-gs.arrived
	if resp := post(t, ts.URL+"/v2/records", "application/x-ndjson", line(a, 10), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("fill: status %d", resp.StatusCode)
	}

	// b's shard has room, a's has none: runs b, a, b.
	body := line(b, 0) + line(a, 11) + line(b, 1)
	resp := post(t, ts.URL+"/v2/records", "application/x-ndjson", body, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeQueueFull || e.Details["accepted"] != float64(0) {
		t.Fatalf("error = %+v, want queue_full with accepted 0", e)
	}

	// Stats waits for the parked worker's shard lock: read it after.
	release()
	s.Manager().Drain()
	if st := s.Manager().Stats(); st.Enqueued != 59+1 || st.Rejected != 3 {
		t.Fatalf("refused body: %d enqueued, %d rejected; want the 60 before it, and all 3 of it rejected", st.Enqueued, st.Rejected)
	}
	if _, _, ok := s.Manager().Stream(b); ok {
		t.Fatalf("stream %s of the refused body was fed", b)
	}
	var ing api.IngestResponse
	if resp := post(t, ts.URL+"/v2/records?wait=1", "application/x-ndjson", body, &ing); resp.StatusCode != http.StatusOK || ing.Accepted != 3 {
		t.Fatalf("retry = %d %+v, want 200 with 3 accepted", resp.StatusCode, ing)
	}
	if st := s.Manager().Stats(); st.Records != 59+1+3 || st.Failed != 0 {
		t.Fatalf("after the retry: %d records fed, %d failed; want 63 fed once each, none failed", st.Records, st.Failed)
	}
}

func TestV2StreamDetailHeavyHitters(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("ccd", 30), nil)

	var detail api.StreamDetail
	if r := get(t, ts.URL+"/v2/streams/ccd", &detail); r.StatusCode != http.StatusOK {
		t.Fatalf("detail status = %d", r.StatusCode)
	}
	if detail.Name != "ccd" || !detail.Warm || len(detail.HeavyHitters) == 0 {
		t.Fatalf("detail = %+v", detail)
	}
	resp := get(t, ts.URL+"/v2/streams/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream status = %d", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeUnknownStream {
		t.Fatalf("unknown stream code = %q", e.Code)
	}

	var streams []tiresias.StreamStatus
	if r := get(t, ts.URL+"/v2/streams", &streams); r.StatusCode != http.StatusOK || len(streams) != 1 {
		t.Fatalf("/v2/streams = %d, %+v", r.StatusCode, streams)
	}
}

func TestV2ConfigAndStats(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 16
	cfg.Backpressure = tiresias.DropOldest
	_, ts := newTestServer(t, cfg)

	var sc api.ServerConfig
	if r := get(t, ts.URL+"/v2/config", &sc); r.StatusCode != http.StatusOK {
		t.Fatalf("config status = %d", r.StatusCode)
	}
	if sc.Delta != "1m0s" || sc.WindowLen != 8 || sc.Theta != 0.5 ||
		!sc.Pipelined || sc.QueueDepth != 16 || sc.Backpressure != "drop-oldest" ||
		sc.Checkpointing || sc.MaxGap != tiresias.DefaultMaxGap {
		t.Fatalf("config = %+v", sc)
	}
	if len(sc.APIVersions) != 1 || sc.APIVersions[0] != api.Version {
		t.Fatalf("apiVersions = %v", sc.APIVersions)
	}

	post(t, ts.URL+"/v2/records?wait=1", "application/x-ndjson", ndjsonBody("s", 30), nil)
	var st api.StatsResponse
	if r := get(t, ts.URL+"/v2/stats", &st); r.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", r.StatusCode)
	}
	if st.Manager.Records != 81 || !st.Manager.Pipelined || st.Index.Added == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestV2CheckpointDisabledIsStructured409(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp := post(t, ts.URL+"/v2/checkpoint", "", "", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status = %d, want 409", resp.StatusCode)
	}
	if e := decodeError(t, resp); e.Code != api.CodeCheckpointDisabled {
		t.Fatalf("code = %q", e.Code)
	}
}

func TestV2CheckpointAndRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CheckpointDir = dir
	_, ts := newTestServer(t, cfg)
	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("ccd", 20), nil)
	var ck api.CheckpointResponse
	if r := post(t, ts.URL+"/v2/checkpoint", "", "", &ck); r.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status = %d", r.StatusCode)
	}
	if ck.Streams != 1 || ck.Dir != dir {
		t.Fatalf("checkpoint = %+v", ck)
	}

	cfg.Restore = true
	s2, ts2 := newTestServer(t, cfg)
	if s2.ColdStarted {
		t.Fatal("restore from a real checkpoint must not cold-start")
	}
	var streams []tiresias.StreamStatus
	get(t, ts2.URL+"/v2/streams", &streams)
	if len(streams) != 1 || !streams[0].Warm {
		t.Fatalf("restored streams = %+v", streams)
	}

	// Restore over an empty directory cold-starts.
	cfg.CheckpointDir = t.TempDir()
	s3, err := New(cfg)
	if err != nil {
		t.Fatalf("empty-dir restore must cold-start, got %v", err)
	}
	if !s3.ColdStarted {
		t.Fatal("ColdStarted not reported")
	}
	_ = s3.Close()
}

// TestRestoreKeepsCheckpointedTheta restores the golden Manager
// checkpoint, written with θ = 4, and checkpoints it again: with Theta
// unset the streams keep θ = 4, and a set Theta overrides it.
func TestRestoreKeepsCheckpointedTheta(t *testing.T) {
	golden, err := filepath.Glob(filepath.Join("..", "testdata", "v3", "manager_w16", "*.ckpt"))
	if err != nil || len(golden) == 0 {
		t.Fatalf("golden files %v (err %v)", golden, err)
	}
	for _, tc := range []struct {
		theta, want float64
	}{{0, 4}, {6, 6}} {
		dir := t.TempDir()
		for _, f := range golden {
			b, err := os.ReadFile(f)
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(Config{WindowLen: 16, Theta: tc.theta, CheckpointDir: dir, Restore: true})
		if err != nil {
			t.Fatal(err)
		}
		if s.ColdStarted {
			t.Fatal("restore of the golden checkpoint cold-started")
		}
		_, err = s.Checkpoint()
		_ = s.Close()
		if err != nil {
			t.Fatal(err)
		}
		written, _ := filepath.Glob(filepath.Join(dir, "ckpt-*", "*.ckpt"))
		if len(written) != len(golden) {
			t.Fatalf("checkpoint wrote %v, want %d files", written, len(golden))
		}
		for _, f := range written {
			fh, err := os.Open(f)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := checkpoint.Read(fh)
			fh.Close()
			if err != nil {
				t.Fatal(err)
			}
			if snap.Config.Theta != tc.want {
				t.Errorf("Theta %v: %s holds θ = %v, want %v", tc.theta, filepath.Base(f), snap.Config.Theta, tc.want)
			}
		}
	}
}

// TestRemovedRoutesAre404 pins the single wire version: the /v1 shims
// and the store's instance-dialect JSON mounts are gone, not hidden.
func TestRemovedRoutesAre404(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, path := range []string{"/v1/streams", "/v1/anomalies", "/v1/stats", "/anomalies", "/stats"} {
		if resp := get(t, ts.URL+path, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/records", "/v1/checkpoint"} {
		if resp := post(t, ts.URL+path, "application/json", `{}`, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestWaitParamIsABool pins ?wait=: only a true value drains the
// pipeline before the response, false values and absence return
// while the worker is still busy, and an unparsable value is a 400
// before anything is fed.
func TestWaitParamIsABool(t *testing.T) {
	for _, tc := range []struct {
		value  string
		status int
		drains bool
	}{
		{"1", http.StatusOK, true},
		{"true", http.StatusOK, true},
		{"0", http.StatusOK, false},
		{"false", http.StatusOK, false},
		{"", http.StatusOK, false},
		{"x", http.StatusBadRequest, false},
	} {
		t.Run("wait="+tc.value, func(t *testing.T) {
			// The sink parks the worker inside the first processed unit
			// until release: a draining request cannot return before it.
			gs := &gateSink{arrived: make(chan struct{}, 1), gate: make(chan struct{})}
			release := sync.OnceFunc(func() { close(gs.gate) })
			cfg := testConfig()
			cfg.Shards = 1
			cfg.QueueDepth = 4
			cfg.DetectorOptions = []tiresias.Option{tiresias.WithSink(gs)}
			s, ts := newTestServer(t, cfg)
			t.Cleanup(release) // before Server.Close, which drains
			if tc.drains {
				go func() {
					<-gs.arrived
					release()
				}()
			}
			client := &http.Client{Timeout: 5 * time.Second}
			resp, err := client.Post(ts.URL+"/v2/records?wait="+tc.value, "application/x-ndjson", strings.NewReader(ndjsonBody("s", 8)))
			if err != nil {
				t.Fatalf("request did not return while the worker was parked: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			switch {
			case tc.status != http.StatusOK:
				if e := decodeError(t, resp); e.Code != api.CodeBadRequest || e.Details["param"] != "wait" {
					t.Fatalf("error = %+v, want bad_request on param wait", e)
				}
				if st := s.statsSnapshot(); st.Ingest.Records != 0 || st.Manager.Streams != 0 {
					t.Fatalf("a rejected ?wait= still fed records: %+v", st)
				}
			case tc.drains:
				if st := s.statsSnapshot(); st.Manager.Records != 59 {
					t.Fatalf("drained response returned with %d of 59 records processed", st.Manager.Records)
				}
			}
			// Not draining: the gate is still shut, so a response at all
			// proves the handler did not wait for the worker.
		})
	}
}

// TestAnomalyMemoryIsBounded is the regression test for the leak the
// second anomaly store was: however many detections a server makes,
// it retains IndexCap of them, counts the rest as evicted, and no
// gauge it exposes grows with the total.
func TestAnomalyMemoryIsBounded(t *testing.T) {
	cfg := testConfig()
	cfg.IndexCap = 64
	_, ts := newTestServer(t, cfg)

	// One body per stream: 10 steady units over 40 leaves, every leaf
	// bursting in the 11th.
	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	burst := func(streamName string) string {
		var b strings.Builder
		line := func(leaf, minute int) {
			fmt.Fprintf(&b, `{"stream":%q,"path":["vho%d","io"],"time":%q}`+"\n",
				streamName, leaf, base.Add(time.Duration(minute)*time.Minute).Format(time.RFC3339))
		}
		for minute := 0; minute < 10; minute++ {
			for leaf := 0; leaf < 40; leaf++ {
				line(leaf, minute)
			}
		}
		for leaf := 0; leaf < 40; leaf++ {
			for i := 0; i < 30; i++ {
				line(leaf, 10)
			}
		}
		line(0, 11)
		return b.String()
	}
	detected := 0
	for i := 0; detected < 1000; i++ {
		if i == 100 {
			t.Fatalf("only %d detections after %d bursts", detected, i)
		}
		var ing api.IngestResponse
		if resp := post(t, ts.URL+"/v2/records", "application/x-ndjson", burst(fmt.Sprintf("s%03d", i)), &ing); resp.StatusCode != http.StatusOK {
			t.Fatalf("burst %d: status = %d", i, resp.StatusCode)
		}
		detected += len(ing.Anomalies)
	}

	resp := get(t, ts.URL+"/v2/stats", nil)
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st api.StatsResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Index.Len != 64 || st.Index.Added != uint64(detected) || st.Index.Evicted != uint64(detected-64) {
		t.Fatalf("index after %d detections = %+v, want 64 retained and the rest evicted", detected, st.Index)
	}
	if st.Manager.Anomalies != uint64(detected) {
		t.Fatalf("manager counted %d anomalies, ingest responses carried %d", st.Manager.Anomalies, detected)
	}
	if strings.Contains(string(raw), "storeLen") {
		t.Fatalf("/v2/stats still reports a second anomaly store: %s", raw)
	}

	// Every gauge is a level, so none may have reached the detection
	// count — except the eviction horizon, which is a cursor.
	mresp := get(t, ts.URL+"/metrics", nil)
	gauges := make(map[string]bool)
	sc := bufio.NewScanner(mresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, ok = strings.CutSuffix(name, " gauge"); ok {
				gauges[name] = true
			}
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") || !gauges[familyOf(line[:i])] {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		if v >= float64(detected) && familyOf(line[:i]) != "tiresias_index_oldest_seq" {
			t.Errorf("gauge %s grew with total detections (%d)", line, detected)
		}
	}
	if !gauges["tiresias_index_entries"] {
		t.Fatal("no gauges parsed from /metrics")
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id, name, data string
}

// readSSE parses SSE frames from r, sending each on the returned
// channel until the stream ends.
func readSSE(r io.Reader) <-chan sseEvent {
	out := make(chan sseEvent, 64)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(r)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.name != "" || ev.data != "" {
					out <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, "id: "):
				ev.id = line[4:]
			case strings.HasPrefix(line, "event: "):
				ev.name = line[7:]
			case strings.HasPrefix(line, "data: "):
				ev.data = line[6:]
			}
		}
	}()
	return out
}

func TestWatchStreamsLiveAnomalies(t *testing.T) {
	cfg := testConfig()
	cfg.WatchHeartbeat = 50 * time.Millisecond
	_, ts := newTestServer(t, cfg)

	// Subscribe first, then ingest: the events must arrive live.
	req, _ := http.NewRequest("GET", ts.URL+"/v2/anomalies/watch?stream=ccd", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Header.Get("Content-Type"), "text/event-stream") {
		t.Fatalf("watch response = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	events := readSSE(resp.Body)

	var ing api.IngestResponse
	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("ccd", 30), &ing)
	if len(ing.Anomalies) == 0 {
		t.Fatal("no anomalies to watch")
	}
	// An unrelated stream's burst must not leak through the filter.
	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("other", 30), nil)

	deadline := time.After(5 * time.Second)
	var got []tiresias.AnomalyEntry
	for len(got) < len(ing.Anomalies) {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("watch stream ended after %d/%d events", len(got), len(ing.Anomalies))
			}
			if ev.name != api.EventAnomaly {
				t.Fatalf("unexpected event %q", ev.name)
			}
			var e tiresias.AnomalyEntry
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
				t.Fatalf("event data: %v", err)
			}
			if e.Stream != "ccd" {
				t.Fatalf("stream filter leaked %q", e.Stream)
			}
			if _, seq, err := api.ParseCursor(ev.id); err != nil || seq != e.Seq {
				t.Fatalf("event id %q does not encode seq %d", ev.id, e.Seq)
			}
			got = append(got, e)
		case <-deadline:
			t.Fatalf("timed out after %d/%d events", len(got), len(ing.Anomalies))
		}
	}
}

func TestWatchReplaysFromCursor(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	var ing api.IngestResponse
	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("ccd", 30), &ing)
	// A second burst two units later, so the index holds detections
	// on both sides of the resume cursor.
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.WriteString(`{"stream":"ccd","path":["vho1","io2"],"time":"2010-09-14T00:32:00Z"}` + "\n")
	}
	b.WriteString(`{"stream":"ccd","path":["vho1","io2"],"time":"2010-09-14T00:33:00Z"}` + "\n")
	var ing2 api.IngestResponse
	post(t, ts.URL+"/v2/records", "application/x-ndjson", b.String(), &ing2)
	ing.Anomalies = append(ing.Anomalies, ing2.Anomalies...)
	if len(ing.Anomalies) < 2 {
		t.Fatalf("need >= 2 anomalies, got %d", len(ing.Anomalies))
	}

	// Read the full replay once to learn the first entry's cursor.
	resp := get(t, ts.URL+"/v2/anomalies?limit=1", nil)
	var page api.AnomaliesPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	first := page.Entries[0].Seq

	// Watching from that cursor replays everything after it.
	req, _ := http.NewRequest("GET", ts.URL+"/v2/anomalies/watch?cursor="+api.Cursor(0, first), nil)
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()
	events := readSSE(wresp.Body)
	deadline := time.After(5 * time.Second)
	want := len(ing.Anomalies) - 1
	var got int
	for got < want {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream ended at %d/%d", got, want)
			}
			if ev.name != api.EventAnomaly {
				continue
			}
			var e tiresias.AnomalyEntry
			if err := json.Unmarshal([]byte(ev.data), &e); err != nil {
				t.Fatal(err)
			}
			if e.Seq <= first {
				t.Fatalf("replay included seq %d at or before cursor %d", e.Seq, first)
			}
			got++
		case <-deadline:
			t.Fatalf("timed out at %d/%d replayed events", got, want)
		}
	}
}

func TestHubLaggedDisconnectAccounting(t *testing.T) {
	h := newHub(1)
	fast := h.subscribe(8)
	slow := h.subscribe(1)
	entries := func(n int, from uint64) []tiresias.AnomalyEntry {
		out := make([]tiresias.AnomalyEntry, n)
		for i := range out {
			out[i] = tiresias.AnomalyEntry{Seq: from + uint64(i), Stream: "s"}
		}
		return out
	}
	h.publish(entries(4, 1)) // slow holds 1, drops 3
	st := h.stats()
	if st.Subscribers != 1 || st.Lagged != 1 || st.Dropped != 3 {
		t.Fatalf("stats after lag = %+v", st)
	}
	if st.Delivered != 5 { // 4 to fast + 1 to slow
		t.Fatalf("delivered = %d, want 5", st.Delivered)
	}
	// The lagged subscriber's channel is closed with the flag set.
	if ev := <-slow.ch; ev.entry.Seq != 1 {
		t.Fatalf("slow first = %+v", ev.entry)
	}
	if _, open := <-slow.ch; open || !slow.lagged || slow.dropped != 3 {
		t.Fatalf("slow end state: open=%v lagged=%v dropped=%d", open, slow.lagged, slow.dropped)
	}
	// The fast subscriber got everything.
	for i := uint64(1); i <= 4; i++ {
		if ev := <-fast.ch; ev.entry.Seq != i {
			t.Fatalf("fast got %+v, want seq %d", ev.entry, i)
		}
	}
	// Double-unsubscribe of a lagged subscriber is a no-op.
	h.unsubscribe(slow)
	// closeAll disconnects without marking lagged.
	h.closeAll()
	if _, open := <-fast.ch; open || fast.lagged {
		t.Fatalf("closeAll: open=%v lagged=%v", open, fast.lagged)
	}
	if h.subscribe(1) != nil {
		t.Fatal("subscribe after closeAll must return nil")
	}
}

// TestCursorEpochResetAcrossRestart pins the restart semantics the
// epoch exists for: a cursor minted by one server instance must not
// be silently reinterpreted by a fresh index whose sequence numbers
// restarted — the page flags cursor_reset and replays from the
// oldest retained entry instead of skipping it.
func TestCursorEpochResetAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CheckpointDir = dir
	_, ts := newTestServer(t, cfg)
	var ing api.IngestResponse
	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("ccd", 30), &ing)
	if len(ing.Anomalies) == 0 {
		t.Fatal("no anomalies before restart")
	}
	var page api.AnomaliesPage
	get(t, ts.URL+"/v2/anomalies", &page)
	oldCursor := page.Cursor
	post(t, ts.URL+"/v2/checkpoint", "", "", nil)

	// "Restart": a second server restored from the checkpoint, with a
	// fresh (empty) index under a new epoch.
	cfg.Restore = true
	_, ts2 := newTestServer(t, cfg)
	var b strings.Builder
	for i := 0; i < 50; i++ {
		b.WriteString(`{"stream":"ccd","path":["vho1","io2"],"time":"2010-09-14T00:33:00Z"}` + "\n")
	}
	b.WriteString(`{"stream":"ccd","path":["vho1","io2"],"time":"2010-09-14T00:34:00Z"}` + "\n")
	var ing2 api.IngestResponse
	post(t, ts2.URL+"/v2/records", "application/x-ndjson", b.String(), &ing2)
	if len(ing2.Anomalies) == 0 {
		t.Fatal("post-restart burst not detected")
	}

	// Paging with the pre-restart cursor must reset, not skip.
	var p2 api.AnomaliesPage
	get(t, ts2.URL+"/v2/anomalies?cursor="+oldCursor, &p2)
	if !p2.CursorReset {
		t.Fatalf("stale-epoch cursor not flagged: %+v", p2)
	}
	if len(p2.Entries) != len(ing2.Anomalies) {
		t.Fatalf("reset walk returned %d entries, want %d", len(p2.Entries), len(ing2.Anomalies))
	}
	// The same stale cursor on the watch endpoint replays everything.
	req, _ := http.NewRequest("GET", ts2.URL+"/v2/anomalies/watch?cursor="+oldCursor, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := readSSE(resp.Body)
	deadline := time.After(5 * time.Second)
	for got := 0; got < len(ing2.Anomalies); {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("watch ended at %d/%d", got, len(ing2.Anomalies))
			}
			if ev.name == api.EventAnomaly {
				got++
			}
		case <-deadline:
			t.Fatalf("stale-cursor watch did not replay the fresh entries")
		}
	}
}

// TestWatchLivePhaseHonorsTimeFilters pins the fix for live events
// bypassing from/to: a watch bounded to a window before the burst
// must not deliver the burst live, while an unbounded watch on the
// same server does.
func TestWatchLivePhaseHonorsTimeFilters(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	open := func(query string) (<-chan sseEvent, func()) {
		req, _ := http.NewRequest("GET", ts.URL+"/v2/anomalies/watch"+query, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return readSSE(resp.Body), func() { resp.Body.Close() }
	}
	// The burst lands at 00:30; the filtered watch ends at 00:10.
	filtered, closeF := open("?stream=ccd&to=2010-09-14T00:10:00Z")
	defer closeF()
	control, closeC := open("?stream=ccd")
	defer closeC()

	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("ccd", 30), nil)

	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev := <-control:
			if ev.name == api.EventAnomaly {
				goto delivered
			}
		case <-deadline:
			t.Fatal("control watch saw nothing")
		}
	}
delivered:
	// The control watcher has the event; give the filtered one a
	// moment, then it must still have seen no anomaly events.
	time.Sleep(200 * time.Millisecond)
	for {
		select {
		case ev := <-filtered:
			if ev.name == api.EventAnomaly {
				t.Fatalf("time-bounded watch leaked a live event: %+v", ev)
			}
		default:
			return
		}
	}
}

// sseFrame is one SSE frame including comment lines, which readSSE
// drops; the eviction tests need them because missed accounting and
// the replay/live boundary are reported as comments.
type sseFrame struct {
	name, data, comment string
}

// readSSEFrames parses SSE frames from r, surfacing comment lines as
// their own frames alongside id/event/data frames.
func readSSEFrames(r io.Reader) <-chan sseFrame {
	out := make(chan sseFrame, 64)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(r)
		var fr sseFrame
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if fr != (sseFrame{}) {
					out <- fr
				}
				fr = sseFrame{}
			case strings.HasPrefix(line, ": "):
				fr.comment = line[2:]
			case strings.HasPrefix(line, "event: "):
				fr.name = line[7:]
			case strings.HasPrefix(line, "data: "):
				fr.data = line[6:]
			}
		}
	}()
	return out
}

// TestWatchResumeAcrossEvictionMidFlood reconnects a watch with a
// cursor that a flood of ingests has meanwhile pushed past the ring's
// eviction horizon. The replay must surface the gap as an exact
// `missed=N` comment (N = oldest−1−cursor; seqs are contiguous so the
// count is precise, not an estimate), restart at the horizon, deliver
// every retained entry exactly once in order, and then hand over to
// the live phase — with no cursor_reset, since the epoch still
// matches.
func TestWatchResumeAcrossEvictionMidFlood(t *testing.T) {
	cfg := testConfig()
	cfg.IndexCap = 4
	_, ts := newTestServer(t, cfg)

	burst := func(minute int) string {
		at := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC).Add(time.Duration(minute) * time.Minute)
		var b strings.Builder
		for i := 0; i < 50; i++ {
			fmt.Fprintf(&b, `{"stream":"ccd","path":["vho1","io2"],"time":%q}`+"\n", at.Format(time.RFC3339))
		}
		fmt.Fprintf(&b, `{"stream":"ccd","path":["vho1","io2"],"time":%q}`+"\n", at.Add(time.Minute).Format(time.RFC3339))
		return b.String()
	}

	// First burst, then learn the earliest entry's cursor while it is
	// still retained.
	var ing api.IngestResponse
	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("ccd", 30), &ing)
	if len(ing.Anomalies) == 0 {
		t.Fatal("first burst produced no anomalies")
	}
	resp := get(t, ts.URL+"/v2/anomalies?limit=1", nil)
	var page api.AnomaliesPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	first := page.Entries[0].Seq

	// Flood: further bursts until the capacity-4 ring has evicted the
	// cursor entry.
	for m := 32; m <= 44; m += 2 {
		post(t, ts.URL+"/v2/records", "application/x-ndjson", burst(m), nil)
	}
	var st api.StatsResponse
	get(t, ts.URL+"/v2/stats", &st)
	if st.Index.OldestSeq <= first {
		t.Fatalf("flood did not evict the cursor: oldest %d, cursor %d", st.Index.OldestSeq, first)
	}
	wantMissed := st.Index.OldestSeq - 1 - first
	newest := st.Index.Added

	// Reconnect with the stale cursor.
	req, _ := http.NewRequest("GET", ts.URL+"/v2/anomalies/watch?cursor="+api.Cursor(st.Index.Epoch, first), nil)
	wresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer wresp.Body.Close()

	frames := readSSEFrames(wresp.Body)
	deadline := time.After(5 * time.Second)
	var gotMissed string
	var seqs []uint64
	seen := make(map[uint64]bool)
live:
	for {
		select {
		case fr, ok := <-frames:
			if !ok {
				t.Fatal("stream ended before the live boundary")
			}
			switch {
			case strings.HasPrefix(fr.comment, "missed="):
				gotMissed = fr.comment
			case fr.comment == "cursor_reset":
				t.Fatal("matching epoch must not trigger cursor_reset")
			case fr.comment == "live":
				break live
			case fr.name == api.EventAnomaly:
				var e tiresias.AnomalyEntry
				if err := json.Unmarshal([]byte(fr.data), &e); err != nil {
					t.Fatal(err)
				}
				if seen[e.Seq] {
					t.Fatalf("duplicate seq %d in replay", e.Seq)
				}
				seen[e.Seq] = true
				seqs = append(seqs, e.Seq)
			}
		case <-deadline:
			t.Fatal("timed out waiting for the live boundary")
		}
	}

	want := fmt.Sprintf("missed=%d evicted before cursor", wantMissed)
	if gotMissed != want {
		t.Fatalf("missed comment = %q, want %q", gotMissed, want)
	}
	// The replay restarts at the horizon and covers every retained
	// entry in order: first delivered + missed == the gap from the
	// cursor, and the last delivered is the newest entry.
	if len(seqs) == 0 || seqs[0] != st.Index.OldestSeq {
		t.Fatalf("replay started at %v, want horizon seq %d", seqs, st.Index.OldestSeq)
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] != seqs[i-1]+1 {
			t.Fatalf("replay gap: %d -> %d", seqs[i-1], seqs[i])
		}
	}
	if last := seqs[len(seqs)-1]; last != newest {
		t.Fatalf("replay ended at seq %d, want newest %d", last, newest)
	}
	if first+wantMissed+uint64(len(seqs)) != newest {
		t.Fatalf("cursor %d + missed %d + delivered %d != newest %d",
			first, wantMissed, len(seqs), newest)
	}
}
