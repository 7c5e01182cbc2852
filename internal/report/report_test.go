package report

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tiresias/internal/detect"
	"tiresias/internal/hierarchy"
)

func key(parts ...string) hierarchy.Key { return hierarchy.KeyOf(parts) }

func sample() []detect.Anomaly {
	return []detect.Anomaly{
		{Key: key("vho1"), Depth: 1, Instance: 10, Actual: 40, Forecast: 5},
		{Key: key("vho1", "io2"), Depth: 2, Instance: 12, Actual: 30, Forecast: 4},
		{Key: key("vho2"), Depth: 1, Instance: 12, Actual: 25, Forecast: 3},
		{Key: key("vho1", "io2", "co1"), Depth: 3, Instance: 20, Actual: 22, Forecast: 2},
	}
}

func TestStoreAddAndQuery(t *testing.T) {
	s := NewStore()
	s.Add(sample()...)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	// Subtree filter.
	got := s.Query(Query{Under: key("vho1")})
	if len(got) != 3 {
		t.Fatalf("Under vho1: %d results, want 3", len(got))
	}
	// Sorted by instance then key.
	for i := 1; i < len(got); i++ {
		if got[i].Instance < got[i-1].Instance {
			t.Fatal("results not sorted")
		}
	}
	// Time range [12, 20).
	got = s.Query(Query{FromInstance: 12, ToInstance: 20})
	if len(got) != 2 {
		t.Fatalf("range query: %d results, want 2", len(got))
	}
	// Depth filter.
	got = s.Query(Query{MinDepth: 2, MaxDepth: 2})
	if len(got) != 1 || got[0].Key != key("vho1", "io2") {
		t.Fatalf("depth query: %+v", got)
	}
	// Limit.
	got = s.Query(Query{Limit: 2})
	if len(got) != 2 {
		t.Fatalf("limit query: %d results, want 2", len(got))
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewStore()
	as := sample()
	as[0].Time = time.Date(2010, 9, 14, 8, 0, 0, 0, time.UTC)
	s.Add(as...)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := NewStore()
	if err := s2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != s.Len() {
		t.Fatalf("loaded %d, want %d", s2.Len(), s.Len())
	}
	if s2.appendedCount() != s2.Len() {
		t.Fatalf("/stats totalWritten = %d after loading %d anomalies", s2.appendedCount(), s2.Len())
	}
	got := s2.Query(Query{})[0]
	if got.Key != key("vho1") || !got.Time.Equal(as[0].Time) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestStoreLoadBadJSON(t *testing.T) {
	s := NewStore()
	if err := s.Load(bytes.NewBufferString("{")); err == nil {
		t.Fatal("bad JSON must error")
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Add(detect.Anomaly{Key: key("v"), Instance: i*100 + j})
				s.Query(Query{Limit: 5})
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d, want 400", s.Len())
	}
}

func TestHandlerAnomalies(t *testing.T) {
	s := NewStore()
	s.Add(sample()...)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/anomalies?under=vho1&from=11&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got []detect.Anomaly
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d anomalies, want 2", len(got))
	}
	for _, a := range got {
		if !key("vho1").IsAncestorOf(a.Key) || a.Instance < 11 {
			t.Fatalf("filter violated: %+v", a)
		}
	}
}

func TestHandlerBadParams(t *testing.T) {
	s := NewStore()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/anomalies?from=notanint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestHandlerStats(t *testing.T) {
	s := NewStore()
	s.Add(sample()...)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["count"].(float64) != 4 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestSplitSlash(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{in: "a/b/c", want: 3},
		{in: "/a//b/", want: 2},
		{in: "", want: 0},
	}
	for _, tt := range tests {
		if got := splitSlash(tt.in); len(got) != tt.want {
			t.Errorf("splitSlash(%q) = %v, want %d parts", tt.in, got, tt.want)
		}
	}
}
