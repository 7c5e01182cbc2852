package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tiresias"
	"tiresias/api"
)

// newProc builds a test proc, with the log floor raised to error so
// per-request Info lines do not drown the test output.
func newProc(t *testing.T, args ...string) *proc {
	t.Helper()
	p, err := buildServer(append([]string{"-log-level", "error"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// storeFileFromCLI runs the real tools — tiresias-gen with an injected
// burst, then tiresias -store — and returns the file tiresias wrote.
func storeFileFromCLI(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	data, storePath := filepath.Join(dir, "data.csv"), filepath.Join(dir, "anoms.jsonl")
	for _, args := range [][]string{
		{"tiresias/cmd/tiresias-gen", "-days", "2", "-anomaly", "vho1:150:154:300", "-out", data},
		{"tiresias/cmd/tiresias", "-in", data, "-window", "96", "-quiet", "-store", storePath},
	} {
		if out, err := exec.Command("go", append([]string{"run"}, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("%s: %v\n%s", args[0], err, out)
		}
	}
	return storePath
}

// TestBuildServerLoadsStore round-trips a cmd/tiresias -store file
// into the server: the file's anomalies are ordinary index entries
// (stream "history"), served unchanged through /v2/anomalies and
// rendered by the dashboard.
func TestBuildServerLoadsStore(t *testing.T) {
	path := storeFileFromCLI(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tiresias.ReadAnomalies(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("cmd/tiresias stored no anomalies (injected burst)")
	}

	p := newProc(t, "-store", path, "-addr", "127.0.0.1:0")
	if p.loaded != len(want) {
		t.Fatalf("loaded %d anomalies, want %d", p.loaded, len(want))
	}
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()
	var page api.AnomaliesPage
	getJSON(t, ts.URL+"/v2/anomalies?stream=history&limit=1000", &page)
	if len(page.Entries) != len(want) || page.NextCursor != "" {
		t.Fatalf("served %d entries (next %q), want the file's %d", len(page.Entries), page.NextCursor, len(want))
	}
	for i, e := range page.Entries {
		if e.Stream != "history" || e.Anomaly != want[i] {
			t.Fatalf("entry %d = %+v, want stream history and %+v", i, e, want[i])
		}
	}
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	html, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	counts := fmt.Sprintf("%d retained / %d added / 0 evicted", len(want), len(want))
	for _, want := range []string{"<td>" + want[len(want)-1].Key.String() + "</td>", "<td>history</td>", counts} {
		if !strings.Contains(string(html), want) {
			t.Fatalf("dashboard missing %q:\n%s", want, html)
		}
	}
}

func TestBuildServerErrors(t *testing.T) {
	if _, err := buildServer([]string{"-store", "/does/not/exist"}); err == nil {
		t.Fatal("missing store must fail")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildServer([]string{"-store", bad}); err == nil {
		t.Fatal("corrupt store must fail")
	}
	// The indented JSON array older cmd/tiresias builds wrote is not
	// the format, and the error says which one is.
	array, err := json.MarshalIndent([]tiresias.Anomaly{{Key: tiresias.KeyOf([]string{"vho1"}), Depth: 1, Instance: 4}}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old.json")
	if err := os.WriteFile(old, array, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildServer([]string{"-store", old}); err == nil || !strings.Contains(err.Error(), "JSON lines") {
		t.Fatalf("JSON-array store: err = %v, want one naming JSON lines", err)
	}
}

func TestBuildServerEmpty(t *testing.T) {
	p, err := buildServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.loaded != 0 || p.srv.Addr != ":8080" {
		t.Fatalf("defaults: n=%d addr=%s", p.loaded, p.srv.Addr)
	}
	if p.handoff || p.pprofAddr != "" {
		t.Fatalf("handoff=%v pprof=%q, both must default off", p.handoff, p.pprofAddr)
	}
}

// postJSON posts body as application/json and decodes a 200 response
// into out (if non-nil); for any other status it returns the code of
// the structured error envelope every /v2 failure carries.
func postJSON(t *testing.T, url string, body string, out any) (status int, code string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var er api.ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == nil {
			t.Fatalf("status %d without a structured error envelope (%v)", resp.StatusCode, err)
		}
		return resp.StatusCode, er.Error.Code
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, ""
}

// getJSON fetches url and decodes a 200 response into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestLiveIngestDetectsAndFeedsDashboard(t *testing.T) {
	p := newProc(t, "-addr", "127.0.0.1:0", "-delta", "1m", "-window", "8", "-theta", "0.5", "-rt", "2", "-dt", "5")
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()

	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	// Warm with 30 steady units (one record per minute), then burst.
	var batch []map[string]any
	for u := 0; u < 30; u++ {
		batch = append(batch, map[string]any{
			"stream": "ccd", "path": []string{"vho1", "io2"},
			"time": base.Add(time.Duration(u) * time.Minute).Format(time.RFC3339),
		})
	}
	burstAt := base.Add(30 * time.Minute)
	for i := 0; i < 50; i++ {
		batch = append(batch, map[string]any{
			"stream": "ccd", "path": []string{"vho1", "io2"},
			"time": burstAt.Format(time.RFC3339),
		})
	}
	// A boundary-crossing record so the burst unit completes.
	batch = append(batch, map[string]any{
		"stream": "ccd", "path": []string{"vho1", "io2"},
		"time": base.Add(31 * time.Minute).Format(time.RFC3339),
	})
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var ing api.IngestResponse
	if code, _ := postJSON(t, ts.URL+"/v2/records", string(body), &ing); code != http.StatusOK {
		t.Fatalf("ingest status = %d", code)
	}
	if ing.Accepted != len(batch) {
		t.Fatalf("accepted %d of %d records", ing.Accepted, len(batch))
	}
	if len(ing.Anomalies) == 0 {
		t.Fatal("burst not flagged by live ingest")
	}

	// The stream shows up in /v2/streams, warm.
	var streams []map[string]any
	getJSON(t, ts.URL+"/v2/streams", &streams)
	if len(streams) != 1 || streams[0]["name"] != "ccd" || streams[0]["warm"] != true {
		t.Fatalf("/v2/streams = %+v", streams)
	}

	// Live detections are in the index the dashboard renders.
	var page api.AnomaliesPage
	getJSON(t, ts.URL+"/v2/anomalies?under=vho1", &page)
	if len(page.Entries) != len(ing.Anomalies) {
		t.Fatalf("index holds %d entries under vho1, ingest reported %d", len(page.Entries), len(ing.Anomalies))
	}
	resp, err := http.Get(ts.URL + "/?under=vho1")
	if err != nil {
		t.Fatal(err)
	}
	html, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(html), "<td>ccd</td>") {
		t.Fatalf("live anomalies not visible on the dashboard:\n%s", html)
	}
}

func TestLiveIngestSingleObjectAndErrors(t *testing.T) {
	p := newProc(t, "-addr", "127.0.0.1:0", "-delta", "1m", "-window", "8")
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()

	var ing api.IngestResponse
	one := `{"path":["a","b"],"time":"2010-09-14T00:00:00Z"}`
	if code, _ := postJSON(t, ts.URL+"/v2/records", one, &ing); code != http.StatusOK {
		t.Fatalf("single-object ingest status = %d", code)
	}
	if ing.Accepted != 1 {
		t.Fatalf("accepted = %d, want 1 (default stream)", ing.Accepted)
	}
	// Malformed body, empty path, a missing time (a zero time would
	// seed the stream clock at year 1 and let the next sane record
	// gap-fill millions of units), and out-of-order time are 400s.
	for name, tc := range map[string]struct{ body, code string }{
		"garbage":      {`{not json`, api.CodeBadRequest},
		"empty path":   {`{"path":[],"time":"2010-09-14T00:00:00Z"}`, api.CodeInvalidRecord},
		"missing time": {`{"path":["a"]}`, api.CodeInvalidRecord},
		"out of order": {`{"path":["a"],"time":"2009-01-01T00:00:00Z"}`, api.CodeOutOfOrder},
	} {
		if status, code := postJSON(t, ts.URL+"/v2/records", tc.body, nil); status != http.StatusBadRequest || code != tc.code {
			t.Fatalf("%s: %d %q, want 400 %q", name, status, code, tc.code)
		}
	}
}

func TestBuildServerBadLiveConfig(t *testing.T) {
	if _, err := buildServer([]string{"-window", "1"}); err == nil {
		t.Fatal("bad live window must fail buildServer")
	}
	if _, err := buildServer([]string{"-shards", "0"}); err == nil {
		t.Fatal("zero shards must fail buildServer")
	}
}

func TestLiveIngestOversizedBodyIs413(t *testing.T) {
	p := newProc(t, "-addr", "127.0.0.1:0", "-delta", "1m", "-window", "8")
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()
	big := "[" + strings.Repeat(" ", 9<<20) + "]"
	if status, code := postJSON(t, ts.URL+"/v2/records", big, nil); status != http.StatusRequestEntityTooLarge || code != api.CodeBodyTooLarge {
		t.Fatalf("oversized body: %d %q, want 413 %q", status, code, api.CodeBodyTooLarge)
	}
}

func TestLiveIngestBatchValidationHasNoSideEffects(t *testing.T) {
	p := newProc(t, "-addr", "127.0.0.1:0", "-delta", "1m", "-window", "8")
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()
	// A batch with a bad second record must not feed the first one.
	bad := `[{"stream":"s","path":["a"],"time":"2010-09-14T00:00:00Z"},{"stream":"s","path":[]}]`
	if status, code := postJSON(t, ts.URL+"/v2/records", bad, nil); status != http.StatusBadRequest || code != api.CodeInvalidRecord {
		t.Fatalf("bad batch: %d %q, want 400 %q", status, code, api.CodeInvalidRecord)
	}
	var streams []map[string]any
	getJSON(t, ts.URL+"/v2/streams", &streams)
	if len(streams) != 0 {
		t.Fatalf("rejected batch mutated state: %+v", streams)
	}
}

// TestCheckpointEndpointAndRestore ingests into two streams, snapshots
// through POST /v2/checkpoint, restarts the server with -restore, and
// verifies the streams resume (warm state, counters, live ingest).
func TestCheckpointEndpointAndRestore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	args := []string{
		"-addr", "127.0.0.1:0", "-delta", "1m", "-window", "8",
		"-theta", "0.5", "-rt", "2", "-dt", "5", "-checkpoint-dir", dir,
	}
	p := newProc(t, args...)
	ts := httptest.NewServer(p.srv.Handler)

	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	var batch []map[string]any
	for u := 0; u < 20; u++ {
		for _, name := range []string{"ccd", "scd"} {
			batch = append(batch, map[string]any{
				"stream": name, "path": []string{"vho1", "io2"},
				"time": base.Add(time.Duration(u) * time.Minute).Format(time.RFC3339),
			})
		}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	var ing api.IngestResponse
	if code, _ := postJSON(t, ts.URL+"/v2/records", string(body), &ing); code != http.StatusOK {
		t.Fatalf("ingest status = %d", code)
	}
	var ck api.CheckpointResponse
	if code, _ := postJSON(t, ts.URL+"/v2/checkpoint", "", &ck); code != http.StatusOK {
		t.Fatalf("checkpoint status = %d", code)
	}
	if ck.Streams != 2 || ck.Dir != dir {
		t.Fatalf("checkpoint response = %+v", ck)
	}
	ts.Close()

	// Restart from the checkpoint and keep ingesting where we left off.
	p2 := newProc(t, append(args, "-restore")...)
	ts2 := httptest.NewServer(p2.srv.Handler)
	defer ts2.Close()
	var streams []map[string]any
	getJSON(t, ts2.URL+"/v2/streams", &streams)
	if len(streams) != 2 || streams[0]["warm"] != true || streams[1]["warm"] != true {
		t.Fatalf("restored /v2/streams = %+v", streams)
	}
	next := map[string]any{
		"stream": "ccd", "path": []string{"vho1", "io2"},
		"time": base.Add(20 * time.Minute).Format(time.RFC3339),
	}
	body, err = json.Marshal(next)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := postJSON(t, ts2.URL+"/v2/records", string(body), &ing); code != http.StatusOK {
		t.Fatalf("post-restore ingest status = %d", code)
	}
	if ing.Accepted != 1 {
		t.Fatalf("post-restore accepted = %d", ing.Accepted)
	}
}

// TestCheckpointEndpointDisabled checks the no-dir and bad-flag cases.
func TestCheckpointEndpointDisabled(t *testing.T) {
	p := newProc(t, "-addr", "127.0.0.1:0")
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()
	if status, code := postJSON(t, ts.URL+"/v2/checkpoint", "", nil); status != http.StatusConflict || code != api.CodeCheckpointDisabled {
		t.Fatalf("checkpoint without -checkpoint-dir: %d %q, want 409 %q", status, code, api.CodeCheckpointDisabled)
	}
	if _, err := buildServer([]string{"-restore"}); err == nil {
		t.Fatal("-restore without -checkpoint-dir must fail")
	}
	if _, err := buildServer([]string{"-checkpoint-every", "1m"}); err == nil {
		t.Fatal("-checkpoint-every without -checkpoint-dir must fail")
	}
	// First boot of a durable deployment: -restore over an empty
	// directory starts cold instead of crash-looping the service.
	if _, err := buildServer([]string{"-addr", "127.0.0.1:0", "-checkpoint-dir", t.TempDir(), "-restore"}); err != nil {
		t.Fatalf("-restore from an empty directory must cold-start, got %v", err)
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

func TestNDJSONIngestAndAnomalyQuery(t *testing.T) {
	p := newProc(t, "-addr", "127.0.0.1:0", "-delta", "1m", "-window", "8", "-theta", "0.5", "-rt", "2", "-dt", "5")
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v2/records", "application/x-ndjson", strings.NewReader(ndjsonBody("ccd", 30)))
	if err != nil {
		t.Fatal(err)
	}
	var ing api.IngestResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ndjson ingest status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ing.Accepted != 81 || len(ing.Anomalies) == 0 {
		t.Fatalf("accepted = %d anomalies = %d", ing.Accepted, len(ing.Anomalies))
	}

	// The same detections are queryable from the index.
	var q api.AnomaliesPage
	query := func(params string) int {
		t.Helper()
		q = api.AnomaliesPage{}
		return getJSON(t, ts.URL+"/v2/anomalies"+params, &q)
	}
	if code := query("?stream=ccd"); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	if len(q.Entries) != len(ing.Anomalies) || q.Entries[0].Stream != "ccd" {
		t.Fatalf("index entries = %d, ingest anomalies = %d", len(q.Entries), len(ing.Anomalies))
	}
	// Time-range filter excludes everything before the burst.
	if code := query("?from=2010-09-14T00:30:00Z&to=2010-09-14T00:31:00Z"); code != http.StatusOK {
		t.Fatalf("range query status = %d", code)
	}
	if len(q.Entries) == 0 {
		t.Fatal("burst unit not matched by time-range query")
	}
	// An unrelated stream matches nothing.
	if query("?stream=nope"); len(q.Entries) != 0 {
		t.Fatalf("stream filter leaked %d entries", len(q.Entries))
	}
	// Bad parameters are 400s.
	for _, bad := range []string{"?from=yesterday", "?limit=ten", "?cursor=zzz!", "?to=nope"} {
		if code := query(bad); code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", bad, code)
		}
	}
}

// TestBareNDJSONNeedsItsContentType: a multi-line body without the
// NDJSON content type is not guessed at — it is a 400 that names the
// content type to send, and nothing is fed.
func TestBareNDJSONNeedsItsContentType(t *testing.T) {
	p := newProc(t, "-addr", "127.0.0.1:0", "-delta", "1m", "-window", "8")
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()
	body := `{"path":["a"],"time":"2010-09-14T00:00:00Z"}` + "\n" + `{"path":["a"],"time":"2010-09-14T00:01:00Z"}`
	for _, contentType := range []string{"", "application/json"} {
		resp, err := http.Post(ts.URL+"/v2/records", contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er api.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || er.Error == nil {
			t.Fatalf("no structured error envelope (%v)", err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error.Message, "application/x-ndjson") {
			t.Fatalf("bare NDJSON as %q: %d %+v, want a 400 naming application/x-ndjson", contentType, resp.StatusCode, er.Error)
		}
	}
	var streams []map[string]any
	getJSON(t, ts.URL+"/v2/streams", &streams)
	if len(streams) != 0 {
		t.Fatalf("rejected body mutated state: %+v", streams)
	}
	if got := postNDJSON(t, ts.URL+"/v2/records", body); got != 2 {
		t.Fatalf("the same body with its content type: accepted = %d, want 2", got)
	}
}

func TestPipelinedIngestEndToEnd(t *testing.T) {
	p := newProc(t,
		"-addr", "127.0.0.1:0", "-delta", "1m", "-window", "8", "-theta", "0.5", "-rt", "2", "-dt", "5",
		"-queue", "64", "-backpressure", "block")
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()

	// ?wait=1 drains the pipeline before the response, so the index
	// read below is ordered after detection.
	resp, err := http.Post(ts.URL+"/v2/records?wait=1", "application/x-ndjson", strings.NewReader(ndjsonBody("stb", 30)))
	if err != nil {
		t.Fatal(err)
	}
	var ing api.IngestResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipelined ingest status = %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ing.Accepted != 81 || !ing.Queued || len(ing.Anomalies) != 0 {
		t.Fatalf("pipelined response = %+v", ing)
	}

	var page api.AnomaliesPage
	getJSON(t, ts.URL+"/v2/anomalies?stream=stb", &page)
	if len(page.Entries) == 0 {
		t.Fatal("pipelined detections not queryable after ?wait=1")
	}

	var st api.StatsResponse
	getJSON(t, ts.URL+"/v2/stats", &st)
	if !st.Manager.Pipelined || st.Manager.Policy != "block" {
		t.Fatalf("/v2/stats manager = %+v", st.Manager)
	}
	if st.Manager.Records != 81 || st.Manager.Enqueued != 81 {
		t.Fatalf("throughput counters = %+v", st.Manager)
	}
	if st.Index.Added == 0 {
		t.Fatal("/v2/stats index added = 0")
	}
}

func TestBuildServerBadBackpressure(t *testing.T) {
	if _, err := buildServer([]string{"-queue", "8", "-backpressure", "sometimes"}); err == nil {
		t.Fatal("unknown backpressure policy must fail buildServer")
	}
}

func TestBuildServerTimeouts(t *testing.T) {
	// Defaults: the listener is hardened out of the box.
	p := newProc(t, "-addr", "127.0.0.1:0")
	if p.srv.ReadTimeout != 2*time.Minute || p.srv.IdleTimeout != 5*time.Minute {
		t.Fatalf("default timeouts: read=%v idle=%v", p.srv.ReadTimeout, p.srv.IdleTimeout)
	}
	if p.srv.WriteTimeout != 0 {
		t.Fatalf("server-level WriteTimeout = %v, must stay 0 (per-request deadlines would kill SSE)", p.srv.WriteTimeout)
	}

	// Overrides land, and 0 disables.
	p = newProc(t, "-addr", "127.0.0.1:0", "-read-timeout", "7s", "-idle-timeout", "0", "-write-timeout", "3s")
	if p.srv.ReadTimeout != 7*time.Second || p.srv.IdleTimeout != 0 {
		t.Fatalf("override timeouts: read=%v idle=%v", p.srv.ReadTimeout, p.srv.IdleTimeout)
	}

	// The built handler serves the health endpoint.
	ts := httptest.NewServer(p.srv.Handler)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v2/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, h.Status)
	}
}

// postNDJSON ingests an NDJSON body and returns the accepted count.
func postNDJSON(t *testing.T, url, body string) int {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	var ing struct {
		Accepted int `json:"accepted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	return ing.Accepted
}

// anomalySet reads /v2/anomalies and keys every entry by
// stream|time|key|depth|instance, failing on any in-process
// duplicate.
func anomalySet(t *testing.T, baseURL string) map[string]bool {
	t.Helper()
	resp, err := http.Get(baseURL + "/v2/anomalies?limit=1000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anomaly query status = %d", resp.StatusCode)
	}
	var page struct {
		Entries []struct {
			Stream   string    `json:"stream"`
			Key      string    `json:"key"`
			Depth    int       `json:"depth"`
			Instance int       `json:"instance"`
			Time     time.Time `json:"time"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]bool, len(page.Entries))
	for _, e := range page.Entries {
		id := fmt.Sprintf("%s|%s|%s|%d|%d", e.Stream, e.Time.Format(time.RFC3339), e.Key, e.Depth, e.Instance)
		if out[id] {
			t.Fatalf("duplicate anomaly within one process: %s", id)
		}
		out[id] = true
	}
	return out
}

// TestHandoffLosesNothingDuplicatesNothing is the zero-downtime
// handoff e2e. Process A (-handoff) ingests the first part of a
// deterministic load, drains, checkpoints, and commits the ready
// marker; process B (-restore) consumes the marker and ingests the
// rest. Every record must be accepted exactly once, no anomaly may
// be detected twice, and the union of both processes' detections
// must equal a single uninterrupted reference run — including the
// burst whose timeunit is split across the handoff.
func TestHandoffLosesNothingDuplicatesNothing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	detector := []string{
		"-addr", "127.0.0.1:0", "-delta", "1m", "-window", "8",
		"-theta", "0.5", "-rt", "2", "-dt", "5", "-queue", "16",
	}

	// Two bursts: unit 20's is fully the predecessor's; unit 30's
	// records straddle the handoff, so the checkpoint must carry the
	// partially accumulated timeunit bit-exactly.
	base := time.Date(2010, 9, 14, 0, 0, 0, 0, time.UTC)
	var recs []string
	add := func(minute int) {
		at := base.Add(time.Duration(minute) * time.Minute).Format(time.RFC3339)
		recs = append(recs, fmt.Sprintf(`{"stream":"hand","path":["vho1","io2"],"time":%q}`, at))
	}
	for m := 0; m < 20; m++ {
		add(m)
	}
	for i := 0; i < 40; i++ {
		add(20)
	}
	for m := 21; m < 30; m++ {
		add(m)
	}
	for i := 0; i < 40; i++ {
		add(30)
	}
	for m := 31; m <= 40; m++ {
		add(m)
	}
	split := 20 + 40 + 9 + 20 // 20 records into the second burst

	a := newProc(t, append(detector, "-checkpoint-dir", dir, "-handoff")...)
	tsA := httptest.NewServer(a.srv.Handler)
	acceptedA := postNDJSON(t, tsA.URL+"/v2/records?wait=1", strings.Join(recs[:split], "\n"))
	setA := anomalySet(t, tsA.URL)
	tsA.Close()
	if err := a.finish(); err != nil {
		t.Fatal(err)
	}
	marker := filepath.Join(dir, handoffMarker)
	if _, err := os.Stat(marker); err != nil {
		t.Fatalf("handoff marker not committed: %v", err)
	}

	b := newProc(t, append(detector, "-checkpoint-dir", dir, "-restore")...)
	if _, err := os.Stat(marker); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("successor did not consume the marker: stat = %v", err)
	}
	tsB := httptest.NewServer(b.srv.Handler)
	defer tsB.Close()
	acceptedB := postNDJSON(t, tsB.URL+"/v2/records?wait=1", strings.Join(recs[split:], "\n"))
	setB := anomalySet(t, tsB.URL)

	if acceptedA+acceptedB != len(recs) {
		t.Fatalf("records lost across handoff: %d + %d != %d", acceptedA, acceptedB, len(recs))
	}
	if len(setA) == 0 || len(setB) == 0 {
		t.Fatalf("both sides must detect something: predecessor %d, successor %d", len(setA), len(setB))
	}
	union := make(map[string]bool, len(setA)+len(setB))
	for id := range setA {
		union[id] = true
	}
	for id := range setB {
		if setA[id] {
			t.Fatalf("anomaly duplicated across handoff: %s", id)
		}
		union[id] = true
	}

	// Reference: the same detector, the whole load, no interruption.
	ref := newProc(t, detector...)
	tsRef := httptest.NewServer(ref.srv.Handler)
	defer tsRef.Close()
	if got := postNDJSON(t, tsRef.URL+"/v2/records?wait=1", strings.Join(recs, "\n")); got != len(recs) {
		t.Fatalf("reference run accepted %d of %d", got, len(recs))
	}
	setRef := anomalySet(t, tsRef.URL)
	for id := range setRef {
		if !union[id] {
			t.Fatalf("anomaly lost across handoff: %s", id)
		}
	}
	if len(union) != len(setRef) {
		t.Fatalf("handoff union detected %d anomalies, reference %d", len(union), len(setRef))
	}
}

func TestBuildServerHandoffAndLogLevelValidation(t *testing.T) {
	if _, err := buildServer([]string{"-handoff"}); err == nil {
		t.Fatal("-handoff without -checkpoint-dir must fail")
	}
	if _, err := buildServer([]string{"-log-level", "loud"}); err == nil {
		t.Fatal("unknown -log-level must fail")
	}
}

func TestPprofMuxServesProfiles(t *testing.T) {
	ts := httptest.NewServer(pprofMux())
	defer ts.Close()
	// The blocking collectors (profile, trace) are wired but not
	// exercised here; the cheap endpoints prove the mux works.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d", path, resp.StatusCode)
		}
	}
}
