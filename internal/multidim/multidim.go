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
	"errors"
	"fmt"
	"time"

	"tiresias"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/hierarchy"
	"tiresias/internal/stream"
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
	// Options configure that dimension's Tiresias instance; the
	// runner adds nothing, so include window/threshold settings.
	Options []tiresias.Option
}

// Runner steps one detector per dimension over a shared timeline.
type Runner struct {
	dims      []Dimension
	detectors []*tiresias.Tiresias
	warm      bool
}

// New creates a Runner. At least one dimension is required, and every
// dimension's Delta must agree (they share the record timeline).
func New(dims []Dimension) (*Runner, error) {
	if len(dims) == 0 {
		return nil, errors.New("multidim: at least one dimension required")
	}
	r := &Runner{dims: dims}
	var delta time.Duration
	for i, d := range dims {
		t, err := tiresias.New(d.Options...)
		if err != nil {
			return nil, fmt.Errorf("multidim: dimension %q: %w", d.Name, err)
		}
		if i == 0 {
			delta = t.Delta()
		} else if t.Delta() != delta {
			return nil, fmt.Errorf("multidim: dimension %q delta %v != %v", d.Name, t.Delta(), delta)
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

// Warmup ingests history records (time-ordered), classifies them per
// dimension, and initializes every detector. Each dimension windows
// through a private tree; completed units are kept in map form.
func (r *Runner) Warmup(history []DimRecord) error {
	if r.warm {
		return errors.New("multidim: Warmup called twice")
	}
	windowers := make([]*stream.Windower, len(r.dims))
	trees := make([]*hierarchy.Tree, len(r.dims))
	for d, det := range r.detectors {
		windowers[d], _ = stream.NewWindower(det.Delta()) // tiresias.New validated delta
		trees[d] = hierarchy.New()
		windowers[d].BindTree(trees[d])
	}
	units := make([][]algo.Timeunit, len(r.dims))
	var start time.Time
	for i, rec := range history {
		if len(rec.Paths) != len(r.dims) {
			return fmt.Errorf("multidim: record %d has %d paths, want %d", i, len(rec.Paths), len(r.dims))
		}
		for d, w := range windowers {
			done, err := w.ObserveDense(stream.Record{Path: rec.Paths[d], Time: rec.Time})
			if err != nil {
				return err
			}
			for _, u := range done {
				units[d] = append(units[d], u.Timeunit(trees[d]))
			}
			if i == 0 && d == 0 {
				start = w.Start()
			}
		}
	}
	for d, w := range windowers {
		units[d] = append(units[d], w.FlushDense().Timeunit(trees[d]))
		if err := r.detectors[d].Warmup(units[d], start); err != nil {
			return fmt.Errorf("multidim: warmup %q: %w", r.dims[d].Name, err)
		}
	}
	r.warm = true
	return nil
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

// ProcessUnit advances all dimensions by one timeunit. units must
// supply one Timeunit per dimension (as produced by ObserveBatch or
// caller-side windowing).
func (r *Runner) ProcessUnit(units []algo.Timeunit) (*Incident, error) {
	if !r.warm {
		return nil, tiresias.ErrNotWarm
	}
	if len(units) != len(r.dims) {
		return nil, fmt.Errorf("multidim: %d units for %d dimensions", len(units), len(r.dims))
	}
	inc := &Incident{}
	for d := range r.dims {
		res, err := r.detectors[d].ProcessUnit(units[d])
		if err != nil {
			return nil, fmt.Errorf("multidim: %q: %w", r.dims[d].Name, err)
		}
		inc.Instance = res.State.Instance
		for _, a := range res.Anomalies {
			inc.Anomalies = append(inc.Anomalies, DimAnomaly{Dimension: r.dims[d].Name, Anomaly: a})
		}
	}
	if len(inc.Anomalies) == 0 {
		return nil, nil
	}
	return inc, nil
}

// SplitUnits classifies a batch of records (all within one timeunit)
// into per-dimension Timeunits.
func SplitUnits(dims int, recs []DimRecord) ([]algo.Timeunit, error) {
	units := make([]algo.Timeunit, dims)
	for d := range units {
		units[d] = algo.Timeunit{}
	}
	for i, rec := range recs {
		if len(rec.Paths) != dims {
			return nil, fmt.Errorf("multidim: record %d has %d paths, want %d", i, len(rec.Paths), dims)
		}
		for d, p := range rec.Paths {
			units[d][hierarchy.KeyOf(p)]++
		}
	}
	return units, nil
}
