// Package detect implements the paper's Definition 4: an anomalous
// event occurs at heavy-hitter node n in the latest timeunit iff
//
//	T[n,1]/F[n,1] > RT   and   T[n,1] − F[n,1] > DT
//
// where T is the actual value and F the forecast. Both a relative and
// an absolute threshold are required, which suppresses false alarms at
// daily peaks (where small relative excursions are large in absolute
// terms) and dips (vice versa).
package detect

import (
	"fmt"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
)

// Thresholds are the sensitivity parameters of Definition 4. The
// paper's sensitivity test selected RT = 2.8 and DT = 8 for the
// customer-care dataset.
type Thresholds struct {
	// RT is the relative threshold on actual/forecast.
	RT float64
	// DT is the absolute threshold on actual − forecast.
	DT float64
}

// DefaultThresholds returns the paper's operating point.
func DefaultThresholds() Thresholds { return Thresholds{RT: 2.8, DT: 8} }

// Validate checks the thresholds are usable.
func (t Thresholds) Validate() error {
	if t.RT <= 0 {
		return fmt.Errorf("detect: RT must be > 0, got %v", t.RT)
	}
	if t.DT < 0 {
		return fmt.Errorf("detect: DT must be >= 0, got %v", t.DT)
	}
	return nil
}

// Exceeds applies Definition 4 to one (actual, forecast) pair. A
// non-positive forecast with a positive actual counts as an unbounded
// ratio, subject to the absolute test. Count series are nonnegative,
// so a forecast below zero (a Holt-Winters level+trend overshoot on a
// quiet node) is floored at zero first: the model is saying "expect
// nothing", and the absolute excess is measured against nothing —
// not against the impossible negative prediction, which would let
// ordinary noise on a quiet node clear DT on overshoot alone.
func (t Thresholds) Exceeds(actual, fc float64) bool {
	if fc < 0 {
		fc = 0
	}
	if actual-fc <= t.DT {
		return false
	}
	if fc <= 0 {
		return actual > 0
	}
	return actual/fc > t.RT
}

// Anomaly is one detected anomalous event.
type Anomaly struct {
	// Key locates the event in the hierarchy.
	Key hierarchy.Key `json:"key"`
	// Depth is the hierarchy depth of the node (root = 0).
	Depth int `json:"depth"`
	// Instance is the time instance at which the event was flagged.
	Instance int `json:"instance"`
	// Time is the start of the anomalous timeunit, when known.
	Time time.Time `json:"time"`
	// Actual is the observed modified weight.
	Actual float64 `json:"actual"`
	// Forecast is the model's prediction.
	Forecast float64 `json:"forecast"`
}

// Score returns the excess ratio actual/forecast (capped at +Inf
// avoidance: a zero forecast scores as actual+1).
func (a Anomaly) Score() float64 {
	if a.Forecast <= 0 {
		return a.Actual + 1
	}
	return a.Actual / a.Forecast
}

// Detector screens engine step states for anomalies.
type Detector struct {
	th Thresholds
}

// New creates a Detector, validating the thresholds.
func New(th Thresholds) (*Detector, error) {
	if err := th.Validate(); err != nil {
		return nil, err
	}
	return &Detector{th: th}, nil
}

// Scan applies Definition 4 to every heavy hitter of a step state.
// unitStart may be zero when wall-clock anchoring is unavailable.
func (d *Detector) Scan(st *algo.StepState, unitStart time.Time) []Anomaly {
	var out []Anomaly
	for _, hh := range st.HeavyHitters {
		if d.th.Exceeds(hh.Actual, hh.Forecast) {
			out = append(out, Anomaly{
				Key:      hh.Key,
				Depth:    hh.Key.Depth(),
				Instance: st.Instance,
				Time:     unitStart,
				Actual:   hh.Actual,
				Forecast: hh.Forecast,
			})
		}
	}
	return out
}
