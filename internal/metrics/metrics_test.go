package metrics

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.prom from the current renderer output")

// buildFixture registers a deterministic set of families covering
// every kind, label shape, and escaping edge the renderer handles.
func buildFixture() *Registry {
	r := NewRegistry()

	// Families registered out of name order on purpose: the render
	// must sort them.
	zeta := r.Counter("zeta_total", "A counter registered last alphabetically-first.")
	zeta.Add(7)

	reqs2xx := r.Counter("demo_requests_total", "Requests served, by status class.", Label{Name: "code", Value: "2xx"})
	reqs5xx := r.Counter("demo_requests_total", "Requests served, by status class.", Label{Name: "code", Value: "5xx"})
	reqs2xx.Add(41)
	reqs2xx.Inc()
	reqs5xx.Set(3)

	depth := r.Gauge("demo_queue_depth", "Current queue depth, by shard.", Label{Name: "shard", Value: "0"})
	depth.Set(12)
	r.Gauge("demo_queue_depth", "Current queue depth, by shard.", Label{Name: "shard", Value: "1"}).Set(0.5)

	esc := r.Gauge("demo_escapes", `Help with a backslash \ and
newline.`, Label{Name: "path", Value: "a\"b\\c\nd"})
	esc.Set(-2)

	h := r.Histogram("demo_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.02, 0.02, 0.5, 3} {
		h.Observe(v)
	}
	return r
}

func TestGoldenExposition(t *testing.T) {
	r := buildFixture()
	var buf bytes.Buffer
	n, err := r.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	golden := filepath.Join("testdata", "golden.prom")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from %s\n--- got ---\n%s\n--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := buildFixture()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# TYPE demo_latency_seconds histogram") {
		t.Fatalf("body missing histogram TYPE line:\n%s", rec.Body.String())
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	r := buildFixture()
	got := r.Names()
	want := []string{"demo_escapes", "demo_latency_seconds", "demo_queue_depth", "demo_requests_total", "zeta_total"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(99)
	if h.count.Load() != 3 {
		t.Fatalf("Count = %d", h.count.Load())
	}
	if h.Sum() != 101 {
		t.Fatalf("Sum = %v", h.Sum())
	}
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="2"} 2`,
		`h_seconds_bucket{le="+Inf"} 3`,
		`h_seconds_count 3`,
	} {
		if !strings.Contains(buf.String(), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, buf.String())
		}
	}
}

func TestRegistryPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("a_total", "a")
	mustPanic("kind mismatch", func() { r.Gauge("a_total", "a") })
	mustPanic("help mismatch", func() { r.Counter("a_total", "different") })
	mustPanic("duplicate series", func() { r.Counter("a_total", "a") })
	mustPanic("empty name", func() { r.Counter("", "x") })
	mustPanic("unsorted buckets", func() { r.Histogram("b_seconds", "b", []float64{2, 1}) })
}

func TestConcurrentUpdatesRaceFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", DurationBuckets())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				g.Set(float64(j))
				h.Observe(float64(i) * 0.001)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := 0; j < 50; j++ {
				buf.Reset()
				if _, err := r.WriteTo(&buf); err != nil {
					t.Errorf("WriteTo: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8*500 {
		t.Fatalf("counter = %d, want %d", c.Value(), 8*500)
	}
	if h.count.Load() != 8*500 {
		t.Fatalf("histogram count = %d", h.count.Load())
	}
}
