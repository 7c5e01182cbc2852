package httpserve

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scrape fetches /metrics and parses the exposition into a map from
// series id (name with label block, if any) to value.
func scrape(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// familyOf strips the label block from a series id.
func familyOf(series string) string {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i]
	}
	return series
}

func TestMetricsEndpointCoversTheSurface(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CheckpointDir = dir
	cfg.QueueDepth = 8
	s, ts := newTestServer(t, cfg)

	body := ndjsonBody("met", 30)
	post(t, ts.URL+"/v2/records?wait=1", "application/x-ndjson", body, nil)
	if resp := post(t, ts.URL+"/v2/checkpoint", "application/json", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status = %d", resp.StatusCode)
	}

	series := scrape(t, ts.URL)
	families := make(map[string]bool)
	for id := range series {
		if strings.HasPrefix(id, "tiresias_") {
			families[familyOf(strings.TrimSuffix(strings.TrimSuffix(familyOf(id), "_sum"), "_count"))] = true
		}
	}
	if len(families) < 15 {
		t.Fatalf("got %d distinct tiresias_ families, want >= 15: %v", len(families), families)
	}

	// The load above must be visible on every subsystem's series.
	checks := map[string]float64{
		"tiresias_ingest_records_total":               81,
		"tiresias_manager_records_total":              81,
		"tiresias_streams":                            1,
		"tiresias_pipeline_enqueued_total":            81,
		"tiresias_engine_step_seconds_count":          0, // checked as > below
		"tiresias_checkpoints_total":                  1,
		"tiresias_checkpoint_streams":                 1,
		"tiresias_checkpoint_generation":              1,
		`tiresias_http_requests_total{code="2xx"}`:    0, // checked as > below
		`tiresias_pipeline_queue_capacity{shard="0"}`: 8,
		"tiresias_streams_quarantined":                0,
		"tiresias_handler_panics_total":               0,
	}
	for id, want := range checks {
		got, ok := series[id]
		if !ok {
			t.Errorf("series %s missing from scrape", id)
			continue
		}
		if want > 0 && got != want {
			t.Errorf("%s = %v, want %v", id, got, want)
		}
	}
	if series["tiresias_engine_step_seconds_count"] == 0 {
		t.Error("engine step histogram saw no observations")
	}
	if series[`tiresias_http_requests_total{code="2xx"}`] == 0 {
		t.Error("http request counter saw no 2xx")
	}
	if series["tiresias_checkpoint_bytes"] <= 0 {
		t.Errorf("checkpoint bytes = %v after a checkpoint, want > 0", series["tiresias_checkpoint_bytes"])
	}
	if series["tiresias_ingest_bytes_total"] < float64(len(body)) {
		t.Errorf("ingest bytes = %v, want >= %d", series["tiresias_ingest_bytes_total"], len(body))
	}
	if series["tiresias_index_added_total"] == 0 {
		t.Error("index added counter is zero after detections")
	}

	// /v2/stats and /metrics read the same registers.
	st := s.statsSnapshot()
	if got := series["tiresias_ingest_records_total"]; got != float64(st.Ingest.Records) {
		t.Errorf("/metrics ingest records %v != /v2/stats %d", got, st.Ingest.Records)
	}
	if got := series["tiresias_manager_anomalies_total"]; got != float64(st.Manager.Anomalies) {
		t.Errorf("/metrics anomalies %v != /v2/stats %d", got, st.Manager.Anomalies)
	}
}

func TestMetricsStableAcrossConfigs(t *testing.T) {
	// A default server (no pipeline, no checkpoint dir) must expose
	// the same family surface as a fully featured one: dashboards and
	// the OPERATIONS.md table hold fleet-wide.
	plain, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	cfg := testConfig()
	cfg.QueueDepth = 4
	cfg.CheckpointDir = t.TempDir()
	full, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	a, b := plain.MetricNames(), full.MetricNames()
	if len(a) != len(b) {
		t.Fatalf("family surface differs: %d vs %d families", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("family surface differs at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&lockedWriter{w: &buf, mu: mu}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, cfg)
	get(t, ts.URL+"/v2/config", nil)
	get(t, ts.URL+"/v2/nope", nil)

	<-mu
	logs := buf.String()
	mu <- struct{}{}
	if !strings.Contains(logs, `"msg":"request"`) ||
		!strings.Contains(logs, `"path":"/v2/config"`) ||
		!strings.Contains(logs, `"status":200`) {
		t.Fatalf("request log missing expected fields:\n%s", logs)
	}
	if !strings.Contains(logs, `"component":"http"`) || !strings.Contains(logs, `"duration_ms"`) {
		t.Fatalf("request log missing slog conventions:\n%s", logs)
	}
	if !strings.Contains(logs, `"level":"WARN","msg":"request","component":"http","method":"GET","path":"/v2/nope","status":404`) {
		t.Fatalf("404 request not logged at WARN:\n%s", logs)
	}
}

// TestRequestLogFloor pins the request log levels at the default Info
// floor: a success is not logged, a 4xx is, at WARN.
func TestRequestLogFloor(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&buf, nil))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v2/healthz", nil))
	s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v2/nope", nil))
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"level":"WARN"`) || !strings.Contains(lines[0], `"status":404`) {
		t.Fatalf("at the Info floor want one WARN line for the 404, got:\n%s", buf.String())
	}
}

// lockedWriter serializes writes from concurrent request goroutines.
type lockedWriter struct {
	w  io.Writer
	mu chan struct{}
}

// Write implements io.Writer.
func (l *lockedWriter) Write(p []byte) (int, error) {
	<-l.mu
	defer func() { l.mu <- struct{}{} }()
	return l.w.Write(p)
}

func TestMetricsCheckpointAge(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointDir = t.TempDir()
	s, ts := newTestServer(t, cfg)
	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("age", 10), nil)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	series := scrape(t, ts.URL)
	age := series["tiresias_checkpoint_age_seconds"]
	if age <= 0 || age > 60 {
		t.Fatalf("checkpoint age = %v, want a small positive number", age)
	}
	if series["tiresias_checkpoint_duration_seconds"] < 0 {
		t.Fatalf("negative checkpoint duration")
	}
}

// TestRequestLogLine pins the request log line's bytes: the JSON
// handler renders the same line whether component=http is bound once
// on the logger or passed with every request.
func TestRequestLogLine(t *testing.T) {
	var buf bytes.Buffer
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v2/healthz", nil))

	// Time and duration vary per run; every other byte is fixed.
	line := regexp.MustCompile(`"time":"[^"]*"`).ReplaceAllString(buf.String(), `"time":"T"`)
	line = regexp.MustCompile(`"duration_ms":[0-9.e+-]+`).ReplaceAllString(line, `"duration_ms":D`)
	const want = `{"time":"T","level":"DEBUG","msg":"request","component":"http","method":"GET","path":"/v2/healthz","status":200,"duration_ms":D,"remote":"192.0.2.1:1234"}` + "\n"
	if line != want {
		t.Fatalf("request log line:\ngot  %s\nwant %s", line, want)
	}
}
