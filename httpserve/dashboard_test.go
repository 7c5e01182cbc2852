package httpserve

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tiresias"
)

// dashboardHTML fetches the dashboard and returns its status and body.
func dashboardHTML(t *testing.T, url string) (int, string) {
	t.Helper()
	resp := get(t, url, nil)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("content type = %s", resp.Header.Get("Content-Type"))
	}
	return resp.StatusCode, string(body)
}

func historyConfig() Config {
	cfg := testConfig()
	cfg.History = []tiresias.Anomaly{
		{Key: tiresias.KeyOf([]string{"vho1", "io2"}), Depth: 2, Instance: 12, Actual: 42, Forecast: 4,
			Time: time.Date(2010, 9, 14, 10, 0, 0, 0, time.UTC)},
		{Key: tiresias.KeyOf([]string{"vho2"}), Depth: 1, Instance: 20, Actual: 15, Forecast: 10},
	}
	return cfg
}

func TestDashboardRendersHistoryAndLiveEntries(t *testing.T) {
	_, ts := newTestServer(t, historyConfig())
	post(t, ts.URL+"/v2/records", "application/x-ndjson", ndjsonBody("ccd", 30), nil)

	status, html := dashboardHTML(t, ts.URL+"/")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	for _, want := range []string{
		"<td>history</td>", "<td>ccd</td>", // the Stream column tells them apart
		"<td>vho1/io2</td>", "10.5x", "2010-09-14T10:00:00Z", "depth 1: 1", "depth 2: ",
		" added / 0 evicted",
	} {
		if !strings.Contains(html, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, html)
		}
	}

	// The preloaded history is ordinary index content: pageable
	// through the API under its stream name.
	var page struct {
		Entries []tiresias.AnomalyEntry `json:"entries"`
	}
	get(t, ts.URL+"/v2/anomalies?stream="+HistoryStream, &page)
	if len(page.Entries) != 2 || page.Entries[0].Instance != 12 {
		t.Fatalf("history page = %+v", page.Entries)
	}
}

func TestDashboardFiltersLikeTheAPI(t *testing.T) {
	_, ts := newTestServer(t, historyConfig())
	for query, absent := range map[string]string{
		"?under=vho1":                "<td>vho2</td>",
		"?stream=nope":               "<td>vho1/io2</td>",
		"?from=2010-09-14T00:00:00Z": "<td>vho2</td>",     // no timestamp: only unbounded ranges
		"?limit=1":                   "<td>vho1/io2</td>", // newest first
		"?to=2010-09-14T10:00:00Z":   "<td>vho1/io2</td>", // to is exclusive
	} {
		status, html := dashboardHTML(t, ts.URL+"/"+query)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d", query, status)
		}
		if strings.Contains(html, absent) {
			t.Errorf("%s: dashboard must not show %q", query, absent)
		}
	}
	for _, bad := range []string{"?from=xyz", "?to=12", "?limit=0"} {
		if status, _ := dashboardHTML(t, ts.URL+"/"+bad); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, status)
		}
	}
}

// TestDashboardTotalsShowEviction pins the totals an operator reads:
// history shares the index capacity, and what aged out is counted
// rather than silently missing.
func TestDashboardTotalsShowEviction(t *testing.T) {
	cfg := historyConfig()
	cfg.IndexCap = 1
	_, ts := newTestServer(t, cfg)
	_, html := dashboardHTML(t, ts.URL+"/")
	if !strings.Contains(html, "1 retained / 2 added / 1 evicted") {
		t.Fatalf("totals do not account for the evicted entry:\n%s", html)
	}
	if strings.Contains(html, "<td>vho1/io2</td>") {
		t.Fatal("the evicted (oldest) history entry is still rendered")
	}
}
