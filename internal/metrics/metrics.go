// Package metrics is a minimal, stdlib-only metrics registry for the
// tiresias serving layer: counters, gauges, and fixed-bucket
// histograms, grouped into named families with optional constant
// labels, rendered in the Prometheus text exposition format (version
// 0.0.4) with deterministic ordering — families sorted by name, series
// in registration order — so the output is golden-testable and scrape
// tools see a stable surface.
//
// The package deliberately implements only what the repo needs:
// every series is registered up front (per-shard gauges are created at
// server construction, when the shard count is known), update paths
// are lock-free atomics safe to call under the Manager's shard locks,
// and collection is a plain snapshot read. There is no dependency on
// the Prometheus client library, matching the repo's no-new-deps
// constraint.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the metric family type, determining the # TYPE line and the
// rendering shape.
type Kind int

// Family kinds, matching the Prometheus metric types the registry can
// expose.
const (
	// KindCounter is a cumulative value that only increases (or is
	// set wholesale from an external cumulative source).
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution with sum and
	// count.
	KindHistogram
)

// String implements fmt.Stringer with the Prometheus type names.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Label is one constant name/value pair attached to a series at
// registration time.
type Label struct {
	// Name is the label name (must match Prometheus conventions;
	// not validated beyond non-emptiness).
	Name string
	// Value is the label value (escaped at render time).
	Value string
}

// series is the render-side interface of a registered metric.
type series interface {
	labels() []Label
	write(w io.Writer, name string)
}

// family groups the series sharing one metric name.
type family struct {
	name   string
	help   string
	kind   Kind
	series []series
}

// Registry holds metric families and renders them in the Prometheus
// text format. Construct with NewRegistry; safe for concurrent use —
// registration typically happens once at startup, updates and
// rendering run concurrently afterwards.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// register adds one series under name, creating the family on first
// use. Registering the same name with a different kind or help text,
// or the same name with an identical label set twice, is a programmer
// error and panics.
func (r *Registry) register(name, help string, kind Kind, s series) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		r.fams[name] = f
	}
	if f.kind != kind || f.help != help {
		panic(fmt.Sprintf("metrics: %s re-registered with different kind or help", name))
	}
	key := labelKey(s.labels())
	for _, prev := range f.series {
		if labelKey(prev.labels()) == key {
			panic(fmt.Sprintf("metrics: duplicate series %s{%s}", name, key))
		}
	}
	f.series = append(f.series, s)
}

// Counter registers (or extends) a counter family and returns the
// series for the given label set. Counters only increase; Set exists
// for mirroring an external cumulative source at scrape time.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{lbls: labels}
	r.register(name, help, KindCounter, c)
	return c
}

// Gauge registers (or extends) a gauge family and returns the series
// for the given label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{lbls: labels}
	r.register(name, help, KindGauge, g)
	return g
}

// Histogram registers (or extends) a histogram family with the given
// ascending bucket upper bounds (an implicit +Inf bucket is always
// appended) and returns the series for the given label set.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: %s: buckets not strictly ascending", name))
		}
	}
	h := &Histogram{
		lbls:    labels,
		bounds:  append([]float64(nil), buckets...),
		buckets: make([]atomic.Uint64, len(buckets)+1),
	}
	r.register(name, help, KindHistogram, h)
	return h
}

// Names returns the sorted names of every registered family — the
// machine-readable metric surface, used by the docs-consistency lint
// to keep the OPERATIONS.md reference table honest.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.fams))
	for name := range r.fams {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// WriteTo renders every family in the Prometheus text exposition
// format: families sorted by name, each preceded by its # HELP and
// # TYPE lines, series in registration order. The error is always nil
// unless w fails; the int64 is the number of bytes written.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	cw := &countingWriter{w: w}
	for _, f := range fams {
		fmt.Fprintf(cw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			s.write(cw, f.name)
		}
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	return cw.n, cw.err
}

// Handler returns an http.Handler serving the rendered registry —
// mount it as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}

// countingWriter tracks bytes written and latches the first error so
// rendering can stop early.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

// Write implements io.Writer.
func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// Counter is a cumulative metric series. The zero value is not
// registered; obtain one from Registry.Counter.
type Counter struct {
	v    atomic.Uint64
	lbls []Label
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the counter with an absolute cumulative value — for
// counters mirrored at scrape time from an external cumulative source
// (e.g. a stats snapshot) rather than incremented in place.
func (c *Counter) Set(v uint64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) labels() []Label { return c.lbls }

func (c *Counter) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(c.lbls), formatFloat(float64(c.v.Load())))
}

// Gauge is a point-in-time metric series. The zero value is not
// registered; obtain one from Registry.Gauge.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
	lbls []Label
}

// Set overwrites the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) labels() []Label { return g.lbls }

func (g *Gauge) write(w io.Writer, name string) {
	fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(g.lbls), formatFloat(g.Value()))
}

// Histogram is a fixed-bucket distribution series. Observations are
// lock-free; the rendered bucket counts are cumulative per the
// Prometheus contract, with _sum and _count series. The zero value is
// not registered; obtain one from Registry.Histogram.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // one per bound plus the +Inf overflow
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits, CAS-accumulated
	lbls    []Label
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) labels() []Label { return h.lbls }

func (h *Histogram) write(w io.Writer, name string) {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		le := append(append([]Label(nil), h.lbls...), Label{Name: "le", Value: formatFloat(b)})
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(le), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	inf := append(append([]Label(nil), h.lbls...), Label{Name: "le", Value: "+Inf"})
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(inf), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(h.lbls), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(h.lbls), h.count.Load())
}

// DurationBuckets is a general-purpose latency bucket ladder in
// seconds, from 100µs to ~10s — wide enough for both engine steps
// (tens of microseconds to milliseconds) and HTTP requests.
func DurationBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// labelKey renders a label set as a canonical map key for duplicate
// detection. Names and values are individually quoted so a value (or
// name) containing ',' or '=' cannot collide with a different label
// set's key.
func labelKey(lbls []Label) string {
	parts := make([]string, len(lbls))
	for i, l := range lbls {
		parts[i] = strconv.Quote(l.Name) + "=" + strconv.Quote(l.Value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// renderLabels renders a label set as {k="v",...}, or "" when empty.
func renderLabels(lbls []Label) string {
	if len(lbls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range lbls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeHelp escapes a HELP line per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a value the way Prometheus expects: shortest
// round-trip decimal, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
