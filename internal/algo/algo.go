// Package algo implements the paper's Step 2 — online heavy-hitter
// detection and time-series construction (§V) — as two interchangeable
// engines:
//
//   - STA (§V-A, Fig. 4): the strawman that retains all ℓ timeunit
//     trees and rebuilds every heavy hitter's series from scratch each
//     time instance. Exact but O(ℓ·|tree|) per instance.
//   - ADA (§V-B, Figs. 5–8): the paper's contribution, which keeps a
//     single tree and *adapts* the previous instance's series to the
//     new heavy-hitter positions via SPLIT and MERGE, with amortized
//     O(1) series updates. Its step is sparse: O(|closure(touched)| +
//     |SHHH| + |refs|) per instance, where closure(touched) is the
//     ancestor closure of the categories the timeunit saw; O(|tree|)
//     work remains only on tree growth, Init and state export/import.
//
// Both read timeunits in one form, DenseUnit — direct counts keyed by
// node ID of the engine's tree — and produce, per time instance, the
// SHHH set together with each member's newest modified weight and its
// one-step-ahead forecast.
package algo

import (
	"fmt"
	"strconv"
	"time"

	"tiresias/internal/forecast"
	"tiresias/internal/hierarchy"
)

// SplitRule selects how ADA's SPLIT apportions a parent's time series
// among its children (§V-B4). The ratio for child c within the split
// set C is F(c, C) = X_c / Σ_{m∈C} X_m where X depends on the rule.
type SplitRule int

const (
	// Uniform splits equally: X = 1.
	Uniform SplitRule = iota + 1
	// LastTimeUnit weighs children by their raw weight in the
	// previous timeunit.
	LastTimeUnit
	// LongTermHistory weighs children by their cumulative raw
	// weight over all previous timeunits.
	LongTermHistory
	// EWMARule weighs children by an exponentially smoothed raw
	// weight.
	EWMARule
)

// String implements fmt.Stringer.
func (r SplitRule) String() string {
	switch r {
	case Uniform:
		return "Uniform"
	case LastTimeUnit:
		return "Last-Time-Unit"
	case LongTermHistory:
		return "Long-Term-History"
	case EWMARule:
		return "EWMA"
	default:
		return "SplitRule(" + strconv.Itoa(int(r)) + ")"
	}
}

// ForecasterFactory builds a forecasting model seeded from a node's
// historical series (oldest first). Implementations typically return a
// Holt-Winters model when the history covers two seasonal cycles and
// fall back to EWMA otherwise.
//
// reuse is a model the caller no longer needs, or nil. When its
// concrete type and seasonal periods are those history calls for, the
// factory re-seeds it in place and returns it; otherwise it returns a
// new model. Either way the result's state is bit-identical to what the
// factory builds from a nil reuse, so an engine can recycle models
// without changing a forecast.
type ForecasterFactory func(reuse forecast.Linear, history []float64) forecast.Linear

// DefaultFactory returns an EWMA(α=0.5) factory.
func DefaultFactory() ForecasterFactory {
	return EWMAFactory(0.5)
}

// EWMAFactory returns a factory producing EWMA(alpha) models — the
// no-seasonality forecaster. Callers that expose a configurable
// smoothing constant should prefer this over DefaultFactory so the
// configured α is honored on the non-seasonal path too.
func EWMAFactory(alpha float64) ForecasterFactory {
	return func(reuse forecast.Linear, history []float64) forecast.Linear {
		return reseedEWMA(reuse, alpha, history)
	}
}

// HoltWintersFactory returns a factory producing additive Holt-Winters
// models with the given parameters and seasonal period (in timeunits),
// falling back to EWMA(alpha) when history is shorter than two cycles.
// The length check happens before the constructor so the fallback —
// taken on every short-history refit in ADA's merge — never builds a
// formatted error.
func HoltWintersFactory(alpha, beta, gamma float64, period int) ForecasterFactory {
	return func(reuse forecast.Linear, history []float64) forecast.Linear {
		if period >= 1 && len(history) >= 2*period {
			return reseedHoltWinters(reuse, alpha, beta, gamma, period, history)
		}
		return reseedEWMA(reuse, alpha, history)
	}
}

// DualSeasonFactory returns a factory producing the dual-seasonality
// model used for CCD (day + week with weight xi), falling back to
// single-season and then EWMA as history allows.
func DualSeasonFactory(alpha, beta, gamma, xi float64, p1, p2 int) ForecasterFactory {
	dual := p1 >= 1 && p2 >= p1 && xi >= 0 && xi <= 1 // what NewDualSeason accepts
	return func(reuse forecast.Linear, history []float64) forecast.Linear {
		if dual && len(history) >= 2*p2 {
			if d, ok := reuse.(*forecast.DualSeason); ok {
				if q1, q2 := d.Periods(); q1 == p1 && q2 == p2 {
					_ = d.Reseed(alpha, beta, gamma, xi, history)
					return d
				}
			}
			d, _ := forecast.NewDualSeason(alpha, beta, gamma, xi, p1, p2, history)
			return d
		}
		if p1 >= 1 && len(history) >= 2*p1 {
			return reseedHoltWinters(reuse, alpha, beta, gamma, p1, history)
		}
		return reseedEWMA(reuse, alpha, history)
	}
}

// reseedEWMA returns EWMA(alpha) over history, built in reuse when it
// is an EWMA.
//
//tiresias:hotpath
func reseedEWMA(reuse forecast.Linear, alpha float64, history []float64) forecast.Linear {
	if e, ok := reuse.(*forecast.EWMA); ok {
		e.Reseed(alpha, history)
		return e
	}
	return forecast.NewEWMA(alpha, history...) //tiresias:ignore hotpath (inlined pool miss: reuse was nil or of another shape)
}

// reseedHoltWinters returns the Holt-Winters model of the given period
// over history, which must cover two cycles, built in reuse when it is
// one of that period.
//
//tiresias:hotpath
func reseedHoltWinters(reuse forecast.Linear, alpha, beta, gamma float64, period int, history []float64) forecast.Linear {
	if hw, ok := reuse.(*forecast.HoltWinters); ok && hw.Period() == period {
		_ = hw.Reseed(alpha, beta, gamma, history)
		return hw
	}
	hw, _ := forecast.NewHoltWinters(alpha, beta, gamma, period, history)
	return hw
}

// HeavyHitter describes one SHHH member at the newest time instance.
type HeavyHitter struct {
	// ID is the node holding the series; Key its category.
	ID  int
	Key hierarchy.Key
	// Actual is the newest modified weight W_n.
	Actual float64
	// Forecast is the model's prediction for the newest timeunit,
	// made before observing Actual.
	Forecast float64
}

// StageTimings decomposes a time instance's cost into the stages of
// Table III (Reading Traces is measured by the harness, outside the
// engines).
type StageTimings struct {
	// UpdatingHierarchies covers weight accumulation and SHHH
	// (re)computation.
	UpdatingHierarchies time.Duration
	// CreatingTimeSeries covers series construction: the ℓ-tree
	// traversals for STA; split/merge adaptation and appends for ADA.
	CreatingTimeSeries time.Duration
	// DetectingAnomalies covers forecasting model evaluation.
	DetectingAnomalies time.Duration
}

// Add accumulates other into t.
func (t *StageTimings) Add(other StageTimings) {
	t.UpdatingHierarchies += other.UpdatingHierarchies
	t.CreatingTimeSeries += other.CreatingTimeSeries
	t.DetectingAnomalies += other.DetectingAnomalies
}

// Total returns the summed stage time.
func (t StageTimings) Total() time.Duration {
	return t.UpdatingHierarchies + t.CreatingTimeSeries + t.DetectingAnomalies
}

// StepState is the outcome of one time instance.
type StepState struct {
	// Instance is the 0-based index of the time instance (the Init
	// window is instance 0).
	Instance int
	// HeavyHitters lists the SHHH members of the newest timeunit in
	// deterministic (node-ID) order.
	HeavyHitters []HeavyHitter
	// Timings decomposes the instance cost.
	Timings StageTimings
}

// MemoryStats approximates an engine's resident state in float64
// slots, the unit of the paper's normalized memory cost (Table IV).
type MemoryStats struct {
	// TreeNodes is the number of nodes in the engine's hierarchy.
	TreeNodes int
	// SeriesFloats counts retained series samples: each series'
	// actual samples, its one held forecast and, with Eta > 1, its
	// coarser-scale samples.
	SeriesFloats int
	// RefSeriesFloats counts reference-series samples (ADA, §V-B5).
	RefSeriesFloats int
	// AuxFloats counts per-node bookkeeping (ADA's split-rule statistic
	// and its EWMARule instance column, STA's stored timeunit counters).
	AuxFloats int
}

// TotalFloats sums all tracked float slots.
func (m MemoryStats) TotalFloats() int {
	return m.SeriesFloats + m.RefSeriesFloats + m.AuxFloats
}

// Normalized returns the paper's normalized space metric: total memory
// divided by the number of tree nodes (per-node unit cost cancels as
// both engines store float64 samples).
func (m MemoryStats) Normalized() float64 {
	if m.TreeNodes == 0 {
		return 0
	}
	return float64(m.TotalFloats()) / float64(m.TreeNodes)
}

// Engine is the common interface of STA and ADA.
//
// Ownership: the *StepState returned by Init and StepDense — including
// its HeavyHitters slice — is owned by the engine and only valid until
// the next Init/StepDense call (engines reuse it so the steady-state
// step allocates nothing). Callers that retain a state across steps
// must copy what they need.
type Engine interface {
	// Name identifies the engine ("STA" or "ADA").
	Name() string
	// Init consumes the first time instance: the initial window of
	// ℓ timeunits (oldest first) in dense node-ID form, whose IDs
	// must already be nodes of the engine's tree. Must be called
	// exactly once, before StepDense.
	Init(window []*DenseUnit) (*StepState, error)
	// StepDense advances one time instance with the newest timeunit
	// in dense node-ID form. The IDs must have been interned into the
	// engine's tree (share one via Config.Tree, or add the nodes to
	// Tree() first); the caller keeps ownership of u and may reset it
	// after the call.
	StepDense(u *DenseUnit) (*StepState, error)
	// Tree exposes the engine's hierarchy (grown dynamically).
	Tree() *hierarchy.Tree
	// SeriesOf returns a copy of the retained actual series (oldest
	// first) for the node, or nil when the node holds no series.
	SeriesOf(id int) []float64
	// Memory reports current memory statistics.
	Memory() MemoryStats
}

// Config parameterizes an engine.
type Config struct {
	// Theta is the heavy-hitter threshold θ (> 0).
	Theta float64
	// WindowLen is ℓ, the number of timeunits in the sliding window
	// (>= 2). The paper's typical value is 8064.
	WindowLen int
	// Rule selects ADA's split rule; defaults to LongTermHistory.
	Rule SplitRule
	// RuleAlpha is the smoothing rate for EWMARule, in (0, 1]
	// (default 0.4).
	RuleAlpha float64
	// RefLevels is h, the number of top hierarchy levels (excluding
	// the root) that maintain reference time series (§V-B5).
	RefLevels int
	// NewForecaster seeds forecasting models; defaults to
	// DefaultFactory().
	NewForecaster ForecasterFactory
	// Lambda and Eta configure the optional multi-timescale series
	// of §V-B6. Eta <= 1 keeps the single base scale.
	Lambda, Eta int
	// Tree optionally supplies the hierarchy the engine operates on,
	// so a windower can intern record paths into the same ID space
	// and feed the engine DenseUnits directly. nil creates a private
	// tree.
	Tree *hierarchy.Tree
}

// normalize fills the defaults of zero fields, then checks the
// result with Validate.
func (c *Config) normalize() error {
	if c.Rule == 0 {
		c.Rule = LongTermHistory
	}
	if c.RuleAlpha == 0 {
		c.RuleAlpha = 0.4
	}
	if c.NewForecaster == nil {
		c.NewForecaster = DefaultFactory()
	}
	return c.Validate()
}

// A ConfigError is a Config field outside its range.
type ConfigError struct {
	// Field names the Config field, e.g. "Theta".
	Field string
	// Want is the field's range, e.g. "> 0".
	Want string
	// Got is the refused value.
	Got any
}

// Error reports the field, its range and its value.
func (e *ConfigError) Error() string {
	return fmt.Sprint("algo: ", e.Field, " must be ", e.Want, ", got ", e.Got)
}

// Validate checks every field against its range, with no defaults
// filled in: a zero Rule or RuleAlpha is refused here, and accepted by
// NewADA, which defaults it first. The error is a *ConfigError.
func (c *Config) Validate() error {
	switch {
	case !(c.Theta > 0):
		return &ConfigError{"Theta", "> 0", c.Theta}
	case c.WindowLen < 2:
		return &ConfigError{"WindowLen", ">= 2", c.WindowLen}
	case c.Rule < Uniform || c.Rule > EWMARule:
		return &ConfigError{"Rule", "a known split rule", c.Rule}
	case !(c.RuleAlpha > 0 && c.RuleAlpha <= 1):
		return &ConfigError{"RuleAlpha", "in (0, 1]", c.RuleAlpha}
	case c.RefLevels < 0:
		return &ConfigError{"RefLevels", ">= 0", c.RefLevels}
	case c.Eta > 1 && c.Lambda < 2:
		return &ConfigError{"Lambda", ">= 2 when Eta > 1", c.Lambda}
	}
	return nil
}
