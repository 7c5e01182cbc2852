// Package forecast implements the forecasting models of §VI: simple
// exponentially weighted moving average (EWMA) and the additive
// Holt-Winters seasonal model, including the dual-seasonality variant
// used for the customer-care dataset (day and week factors combined
// linearly with weight ξ).
//
// All models are *linear* in the observed series (Lemma 2 of the
// paper). The Linear interface exposes that structure: ADA's SPLIT
// hands each child a scaled copy of the parent's model, and MERGE sums
// children's models into the parent — no refitting required. Copies
// and refits are made in place (CopyFrom, Reseed), so an engine that
// recycles its models allocates none of them in the steady state.
package forecast

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrIncompatible is returned when two models that cannot be summed
// are merged.
var ErrIncompatible = errors.New("forecast: incompatible models")

// ErrHistory is returned when a model is initialized from a history
// that is too short.
var ErrHistory = errors.New("forecast: insufficient history")

// flushBelow is the magnitude under which smoothed state is flushed to
// zero: 2^-1000, twenty-two binades above the smallest normal float64.
const flushBelow = 0x1p-1000

// Flush returns x, or 0 when |x| < 2^-1000. Every recurrence of the
// form s ← a·v + (1−a)·s — the models here, ADA's split-rule
// statistics — applies it to the value it stores. Without it a series
// that goes quiet decays into the subnormal range and sticks there
// (0.6 × 4.9e-324 rounds back to 4.9e-324), after which every update
// of that state takes a microcoded multiply, forever; on a wide quiet
// hierarchy that was two thirds of the engine step. No count-derived
// quantity is meaningfully that small, and above the threshold results
// are bit-identical to the unflushed recurrence.
func Flush(x float64) float64 {
	if x < flushBelow && x > -flushBelow {
		return 0
	}
	return x
}

// Forecaster produces one-step-ahead forecasts over a time series fed
// to it one sample per timeunit.
type Forecaster interface {
	// Forecast returns the prediction for the next (not yet
	// observed) timeunit.
	Forecast() float64
	// Update observes the actual value for the next timeunit and
	// advances the model state.
	Update(actual float64)
}

// Linear is a Forecaster whose state is a linear function of the
// observed series, enabling ADA's constant-time split and merge.
type Linear interface {
	Forecaster
	// Scale multiplies the model state by r (split with ratio r).
	Scale(r float64)
	// Add folds other's state into the receiver (merge). The other
	// model must have the same shape (same seasonal periods).
	Add(other Linear) error
	// CopyFrom overwrites the receiver with src's state, reusing the
	// receiver's memory. It returns ErrIncompatible and leaves the
	// receiver unchanged unless src has the receiver's concrete type
	// and seasonal periods.
	CopyFrom(src Linear) error
}

// Clone returns an independent deep copy of m, one of this package's
// Linear models (nil for any other).
func Clone(m Linear) Linear {
	switch x := m.(type) {
	case *EWMA:
		c := *x
		return &c
	case *HoltWinters:
		c := *x
		c.season = slices.Clone(x.season)
		return &c
	case *DualSeason:
		c := *x
		c.s1, c.s2 = slices.Clone(x.s1), slices.Clone(x.s2)
		return &c
	}
	return nil
}

// Compatible reports whether a.Add(b) would succeed: same concrete
// model, same seasonal shape, same phase. It exists so merge hot paths
// can pick add-vs-refit without paying for a formatted error.
func Compatible(a, b Linear) bool {
	switch x := a.(type) {
	case *EWMA:
		_, ok := b.(*EWMA)
		return ok
	case *HoltWinters:
		y, ok := b.(*HoltWinters)
		return ok && x.period == y.period && x.idx == y.idx
	case *DualSeason:
		y, ok := b.(*DualSeason)
		return ok && x.p1 == y.p1 && x.p2 == y.p2 && x.i1 == y.i1 && x.i2 == y.i2
	}
	return false
}

// EWMA is the exponentially weighted moving average model
// F[t] = α·T[t-1] + (1-α)·F[t-1].
type EWMA struct {
	// Alpha is the smoothing rate in (0, 1].
	Alpha float64
	f     float64
	seen  bool
}

var _ Linear = (*EWMA)(nil)

// NewEWMA returns an EWMA model with the given smoothing rate,
// optionally primed with history (oldest first).
func NewEWMA(alpha float64, history ...float64) *EWMA {
	e := &EWMA{}
	e.Reseed(alpha, history)
	return e
}

// Reseed re-initializes e in place to the state NewEWMA(alpha,
// history...) returns.
//
//tiresias:hotpath
func (e *EWMA) Reseed(alpha float64, history []float64) {
	*e = EWMA{Alpha: alpha}
	for _, v := range history {
		e.Update(v)
	}
}

// Forecast implements Forecaster.
func (e *EWMA) Forecast() float64 { return e.f }

// Update implements Forecaster.
func (e *EWMA) Update(actual float64) {
	if !e.seen {
		e.f = actual
		e.seen = true
		return
	}
	e.f = Flush(e.Alpha*actual + (1-e.Alpha)*e.f)
}

// Scale implements Linear.
func (e *EWMA) Scale(r float64) { e.f *= r }

// Add implements Linear.
func (e *EWMA) Add(other Linear) error {
	o, ok := other.(*EWMA)
	if !ok {
		return fmt.Errorf("%w: %T + %T", ErrIncompatible, e, other)
	}
	e.f += o.f
	e.seen = e.seen || o.seen
	return nil
}

// CopyFrom implements Linear.
//
//tiresias:hotpath
func (e *EWMA) CopyFrom(src Linear) error {
	s, ok := src.(*EWMA)
	if !ok {
		return ErrIncompatible
	}
	*e = *s
	return nil
}

// HoltWinters is the additive Holt-Winters seasonal model of §VI with
// a single seasonal period υ:
//
//	L[t] = α(T[t] − S[t−υ]) + (1−α)(L[t−1] + B[t−1])
//	B[t] = β(L[t] − L[t−1]) + (1−β)B[t−1]
//	S[t] = γ(T[t] − L[t])  + (1−γ)S[t−υ]
//	G[t] = L[t−1] + B[t−1] + S[t−υ]
type HoltWinters struct {
	alpha, beta, gamma float64
	period             int
	level, trend       float64
	season             []float64
	idx                int // next seasonal slot to use / overwrite
}

var _ Linear = (*HoltWinters)(nil)

// NewHoltWinters builds a Holt-Winters model with seasonal period
// period (in timeunits), initialized from history (oldest first) using
// the paper's startup formulas, which require at least two full
// seasonal cycles.
func NewHoltWinters(alpha, beta, gamma float64, period int, history []float64) (*HoltWinters, error) {
	if period < 1 {
		return nil, fmt.Errorf("forecast: period must be >= 1, got %d", period)
	}
	if len(history) < 2*period {
		return nil, fmt.Errorf("%w: need %d samples for period %d, have %d",
			ErrHistory, 2*period, period, len(history))
	}
	hw := &HoltWinters{period: period, season: make([]float64, period)}
	_ = hw.Reseed(alpha, beta, gamma, history)
	return hw, nil
}

// Reseed re-initializes hw in place to the state NewHoltWinters(alpha,
// beta, gamma, hw.Period(), history) returns. It returns ErrHistory and
// leaves hw unchanged when history covers fewer than two cycles.
//
// Level, trend and the seasonal ring come from the last 2υ samples of
// history, per the paper's initialization:
//
//	L = (1/2υ) Σ last 2υ samples
//	B = (1/2υ)(Σ newest υ − Σ previous υ)
//	S[t−j] = T[t−j] − L,   j = 1..υ (the newest cycle seeds the ring)
//
// Each formula is linear in the history, preserving Lemma 2.
//
//tiresias:hotpath
func (hw *HoltWinters) Reseed(alpha, beta, gamma float64, history []float64) error {
	u := hw.period
	if len(history) < 2*u {
		return ErrHistory
	}
	hw.alpha, hw.beta, hw.gamma = alpha, beta, gamma
	tail := history[len(history)-2*u:]
	var sumAll, sumNew, sumOld float64
	for i, v := range tail {
		sumAll += v
		if i < u {
			sumOld += v
		} else {
			sumNew += v
		}
	}
	hw.level = sumAll / float64(2*u)
	hw.trend = (sumNew - sumOld) / float64(2*u)
	newest := tail[u:]
	for j, v := range newest {
		hw.season[j] = v - hw.level
	}
	hw.idx = 0 // the slot seeded from the oldest sample of the newest cycle
	return nil
}

// Period returns the seasonal period υ.
func (hw *HoltWinters) Period() int { return hw.period }

// Forecast implements Forecaster: G = L + B + S[t−υ].
func (hw *HoltWinters) Forecast() float64 {
	return hw.level + hw.trend + hw.season[hw.idx]
}

// Update implements Forecaster.
func (hw *HoltWinters) Update(actual float64) {
	sOld := hw.season[hw.idx]
	prevLevel := hw.level
	hw.level = Flush(hw.alpha*(actual-sOld) + (1-hw.alpha)*(hw.level+hw.trend))
	hw.trend = Flush(hw.beta*(hw.level-prevLevel) + (1-hw.beta)*hw.trend)
	hw.season[hw.idx] = Flush(hw.gamma*(actual-hw.level) + (1-hw.gamma)*sOld)
	hw.idx = (hw.idx + 1) % hw.period
}

// Scale implements Linear.
func (hw *HoltWinters) Scale(r float64) {
	hw.level *= r
	hw.trend *= r
	for i := range hw.season {
		hw.season[i] *= r
	}
}

// Add implements Linear. Both models must share the same period and
// seasonal phase.
func (hw *HoltWinters) Add(other Linear) error {
	o, ok := other.(*HoltWinters)
	if !ok {
		return fmt.Errorf("%w: %T + %T", ErrIncompatible, hw, other)
	}
	if o.period != hw.period {
		return fmt.Errorf("%w: period %d vs %d", ErrIncompatible, hw.period, o.period)
	}
	if o.idx != hw.idx {
		return fmt.Errorf("%w: seasonal phase %d vs %d", ErrIncompatible, hw.idx, o.idx)
	}
	hw.level += o.level
	hw.trend += o.trend
	for i := range hw.season {
		hw.season[i] += o.season[i]
	}
	return nil
}

// CopyFrom implements Linear.
//
//tiresias:hotpath
func (hw *HoltWinters) CopyFrom(src Linear) error {
	s, ok := src.(*HoltWinters)
	if !ok || s.period != hw.period {
		return ErrIncompatible
	}
	season := hw.season
	*hw = *s
	hw.season = season
	copy(hw.season, s.season)
	return nil
}

// DualSeason is the CCD variant of §VII: two seasonal factors (e.g.
// day υ1 and week υ2) combined linearly, S = ξ·S1 + (1−ξ)·S2, sharing
// one level and trend.
type DualSeason struct {
	alpha, beta, gamma float64
	xi                 float64
	p1, p2             int
	level, trend       float64
	s1, s2             []float64
	i1, i2             int
}

var _ Linear = (*DualSeason)(nil)

// NewDualSeason builds a dual-seasonality Holt-Winters model. p2 must
// be the longer period and history must cover at least two cycles of
// it. xi is the weight of the first (shorter) seasonal factor; the
// paper derives it from the FFT magnitudes as FFT_day/FFT_week ≈ 0.76.
func NewDualSeason(alpha, beta, gamma, xi float64, p1, p2 int, history []float64) (*DualSeason, error) {
	if p1 < 1 || p2 < p1 {
		return nil, fmt.Errorf("forecast: need 1 <= p1 <= p2, got %d, %d", p1, p2)
	}
	if xi < 0 || xi > 1 {
		return nil, fmt.Errorf("forecast: xi must be in [0,1], got %v", xi)
	}
	if len(history) < 2*p2 {
		return nil, fmt.Errorf("%w: need %d samples, have %d", ErrHistory, 2*p2, len(history))
	}
	d := &DualSeason{p1: p1, p2: p2, s1: make([]float64, p1), s2: make([]float64, p2)}
	_ = d.Reseed(alpha, beta, gamma, xi, history)
	return d, nil
}

// Periods returns the short and long seasonal periods υ1 and υ2.
func (d *DualSeason) Periods() (p1, p2 int) { return d.p1, d.p2 }

// Reseed re-initializes d in place to the state NewDualSeason(alpha,
// beta, gamma, xi, p1, p2, history) returns for d's periods; xi must
// lie in [0, 1], as NewDualSeason requires. It returns ErrHistory and
// leaves d unchanged when history covers fewer than two long cycles.
//
//tiresias:hotpath
func (d *DualSeason) Reseed(alpha, beta, gamma, xi float64, history []float64) error {
	p1, p2 := d.p1, d.p2
	if len(history) < 2*p2 {
		return ErrHistory
	}
	d.alpha, d.beta, d.gamma, d.xi = alpha, beta, gamma, xi
	// Level/trend from the last two long cycles, like HoltWinters.
	tail := history[len(history)-2*p2:]
	var sumAll, sumNew, sumOld float64
	for i, v := range tail {
		sumAll += v
		if i < p2 {
			sumOld += v
		} else {
			sumNew += v
		}
	}
	d.level = sumAll / float64(2*p2)
	d.trend = (sumNew - sumOld) / float64(2*p2)
	// Seed the long season from the newest long cycle and the short
	// season by averaging residuals across aligned short cycles: slot j
	// of the short season sees p2/p1 of them, one more when j < p2%p1.
	newest := tail[p2:]
	for j, v := range newest {
		d.s2[j] = (1 - xi) * (v - d.level)
	}
	clear(d.s1)
	for j, v := range newest {
		d.s1[j%p1] += xi * (v - d.level)
	}
	for j := range d.s1 {
		count := p2 / p1
		if j < p2%p1 {
			count++
		}
		d.s1[j] /= float64(count)
	}
	d.i1, d.i2 = 0, 0
	return nil
}

func (d *DualSeason) combined() float64 {
	return d.s1[d.i1] + d.s2[d.i2]
}

// Forecast implements Forecaster.
func (d *DualSeason) Forecast() float64 {
	return d.level + d.trend + d.combined()
}

// Update implements Forecaster.
func (d *DualSeason) Update(actual float64) {
	sOld1, sOld2 := d.s1[d.i1], d.s2[d.i2]
	prevLevel := d.level
	d.level = Flush(d.alpha*(actual-sOld1-sOld2) + (1-d.alpha)*(d.level+d.trend))
	d.trend = Flush(d.beta*(d.level-prevLevel) + (1-d.beta)*d.trend)
	resid := actual - d.level
	d.s1[d.i1] = Flush(d.gamma*d.xi*resid + (1-d.gamma)*sOld1)
	d.s2[d.i2] = Flush(d.gamma*(1-d.xi)*resid + (1-d.gamma)*sOld2)
	d.i1 = (d.i1 + 1) % d.p1
	d.i2 = (d.i2 + 1) % d.p2
}

// Scale implements Linear.
func (d *DualSeason) Scale(r float64) {
	d.level *= r
	d.trend *= r
	for i := range d.s1 {
		d.s1[i] *= r
	}
	for i := range d.s2 {
		d.s2[i] *= r
	}
}

// Add implements Linear.
func (d *DualSeason) Add(other Linear) error {
	o, ok := other.(*DualSeason)
	if !ok {
		return fmt.Errorf("%w: %T + %T", ErrIncompatible, d, other)
	}
	if o.p1 != d.p1 || o.p2 != d.p2 || o.i1 != d.i1 || o.i2 != d.i2 {
		return fmt.Errorf("%w: seasonal shape mismatch", ErrIncompatible)
	}
	d.level += o.level
	d.trend += o.trend
	for i := range d.s1 {
		d.s1[i] += o.s1[i]
	}
	for i := range d.s2 {
		d.s2[i] += o.s2[i]
	}
	return nil
}

// CopyFrom implements Linear.
//
//tiresias:hotpath
func (d *DualSeason) CopyFrom(src Linear) error {
	s, ok := src.(*DualSeason)
	if !ok || s.p1 != d.p1 || s.p2 != d.p2 {
		return ErrIncompatible
	}
	s1, s2 := d.s1, d.s2
	*d = *s
	d.s1, d.s2 = s1, s2
	copy(d.s1, s.s1)
	copy(d.s2, s.s2)
	return nil
}

// SplitErrorCurve reproduces the analysis of §V-B4 (Fig. 9): after a
// split biases an EWMA forecast by ξ at time t, the relative error
// RE[t+k] of the forecast after k further iterations. series supplies
// the actual values T[t], T[t+1], ... used for the iterations. The
// returned slice has one entry per iteration k = 1..len(series).
func SplitErrorCurve(alpha, xi float64, series []float64) []float64 {
	// Unbiased model: F[t] chosen as the steady-state EWMA of the
	// series' first value, matching the paper's setup (T[i] = 1,
	// F[t] = 1 at the split instant).
	truth := NewEWMA(alpha)
	biased := NewEWMA(alpha)
	if len(series) == 0 {
		return nil
	}
	truth.f, truth.seen = series[0], true
	biased.f, biased.seen = series[0]+xi, true
	out := make([]float64, 0, len(series))
	for _, actual := range series {
		truth.Update(actual)
		biased.Update(actual)
		re := math.Abs(biased.Forecast()-truth.Forecast()) / math.Abs(truth.Forecast())
		out = append(out, re)
	}
	return out
}
