// Package multidim runs one Tiresias detector per hierarchical
// dimension of the same record stream. The paper's customer-care
// records carry two independent hierarchical categories — the trouble
// description (what went wrong) and the network path (where) — and the
// deployment monitors both (§II-A). This package fans each record out
// to all dimensions, steps the detectors in lockstep per timeunit, and
// correlates their anomalies by time so an operator sees "TV/No
// Service spiked at 14:00 *and* vho3/io1 spiked at 14:00" as one
// incident hypothesis.
package multidim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"tiresias"

	"tiresias/internal/detect"
)

// DimRecord is one operational record carrying one category per
// dimension, in the runner's dimension order.
type DimRecord struct {
	// Paths holds one hierarchical category per dimension.
	Paths [][]string
	// Time is the recorded time.
	Time time.Time
}

// Dimension names one hierarchical domain and its detector options.
type Dimension struct {
	// Name labels the dimension ("trouble", "netpath", ...).
	Name string
	// Options configure that dimension's Tiresias instance; include
	// window/threshold settings. The runner adds only a sink of its own
	// that gathers the dimension's detections.
	Options []tiresias.Option
}

// Runner steps one detector per dimension over a shared timeline. Each
// detector windows its dimension's records itself, through Run.
type Runner struct {
	dims      []Dimension
	detectors []*tiresias.Tiresias
	found     []collector
}

// collector gathers one dimension's detections and the instance of the
// last unit it screened.
type collector struct {
	anoms    []detect.Anomaly
	instance int
}

func (c *collector) OnAnomaly(a tiresias.Anomaly) { c.anoms = append(c.anoms, a) }

func (c *collector) OnUnit(ev tiresias.UnitEvent) { c.instance = ev.Instance }

// New creates a Runner. At least one dimension is required, and every
// dimension's Delta must agree (they share the record timeline).
func New(dims []Dimension) (*Runner, error) {
	if len(dims) == 0 {
		return nil, errors.New("multidim: at least one dimension required")
	}
	r := &Runner{dims: dims, found: make([]collector, len(dims))}
	for i, d := range dims {
		opts := append(append([]tiresias.Option(nil), d.Options...), tiresias.WithSink(&r.found[i]))
		t, err := tiresias.New(opts...)
		if err != nil {
			return nil, fmt.Errorf("multidim: dimension %q: %w", d.Name, err)
		}
		if i > 0 && t.Delta() != r.detectors[0].Delta() {
			return nil, fmt.Errorf("multidim: dimension %q delta %v != %v", d.Name, t.Delta(), r.detectors[0].Delta())
		}
		r.detectors = append(r.detectors, t)
	}
	return r, nil
}

// Dimensions returns the dimension names in order.
func (r *Runner) Dimensions() []string {
	out := make([]string, len(r.dims))
	for i, d := range r.dims {
		out[i] = d.Name
	}
	return out
}

// Warmup feeds history records (time-ordered) to every dimension's
// detector, which warms up on the first window of units (or on all of
// a shorter history); units past the window are screened, and their
// detections dropped. The trailing partial unit is completed, so the
// next Step starts a new unit.
func (r *Runner) Warmup(history []DimRecord) error {
	if r.detectors[0].Warm() {
		return errors.New("multidim: Warmup called twice")
	}
	return r.feed(history)
}

// DimAnomaly tags an anomaly with its dimension.
type DimAnomaly struct {
	// Dimension is the dimension name.
	Dimension string `json:"dimension"`
	// Anomaly is the underlying detection.
	Anomaly detect.Anomaly `json:"anomaly"`
}

// Incident groups anomalies from different dimensions that fired at
// the same time instance — the operator-facing correlation unit.
type Incident struct {
	// Instance is the shared time instance.
	Instance int `json:"instance"`
	// Anomalies holds the co-occurring detections, dimension order
	// then key order.
	Anomalies []DimAnomaly `json:"anomalies"`
}

// CrossDimensional reports whether the incident spans more than one
// dimension (both "what" and "where" fired together).
func (inc Incident) CrossDimensional() bool {
	seen := make(map[string]bool, 2)
	for _, a := range inc.Anomalies {
		seen[a.Dimension] = true
	}
	return len(seen) > 1
}

// Step advances all dimensions by one timeunit: unit holds that unit's
// records, each dimension's detector windows and screens them, and the
// detections are correlated into an incident (nil when none fired).
// The records must fall in one timeunit at or after the previous one's;
// quiet units in between are filled in empty.
func (r *Runner) Step(unit []DimRecord) (*Incident, error) {
	if !r.detectors[0].Warm() {
		return nil, errors.New("multidim: Step before Warmup")
	}
	if err := r.feed(unit); err != nil {
		return nil, err
	}
	inc := &Incident{}
	for d := range r.dims {
		inc.Instance = r.found[d].instance
		for _, a := range r.found[d].anoms {
			inc.Anomalies = append(inc.Anomalies, DimAnomaly{Dimension: r.dims[d].Name, Anomaly: a})
		}
	}
	if len(inc.Anomalies) == 0 {
		return nil, nil
	}
	return inc, nil
}

// feed runs every dimension's detector over its paths of recs,
// gathering the detections afresh.
func (r *Runner) feed(recs []DimRecord) error {
	for i, rec := range recs {
		if len(rec.Paths) != len(r.dims) {
			return fmt.Errorf("multidim: record %d has %d paths, want %d", i, len(rec.Paths), len(r.dims))
		}
	}
	for d, det := range r.detectors {
		r.found[d].anoms = r.found[d].anoms[:0]
		if _, err := det.Run(context.Background(), &dimSource{recs: recs, dim: d}); err != nil {
			return fmt.Errorf("multidim: %q: %w", r.dims[d].Name, err)
		}
	}
	return nil
}

// dimSource serves one dimension's paths of a record batch.
type dimSource struct {
	recs []DimRecord
	dim  int
	next int
}

func (s *dimSource) Next() (tiresias.Record, error) {
	if s.next == len(s.recs) {
		return tiresias.Record{}, io.EOF
	}
	rec := s.recs[s.next]
	s.next++
	return tiresias.Record{Path: rec.Paths[s.dim], Time: rec.Time}, nil
}
