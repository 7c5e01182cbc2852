// Package tiresias is the public API of the Tiresias reproduction: an
// online anomaly detector over hierarchical operational data streams
// (Hong et al., ICDCS 2012). It wires the full pipeline of Fig. 3 —
// windowing (Step 1), heavy-hitter detection and time-series
// construction (Step 2), seasonality analysis (Step 3), seasonal
// forecasting (Step 4), and anomaly reporting (Steps 5–6) — behind a
// small streaming-first surface:
//
//	t, err := tiresias.New(tiresias.WithTheta(10), tiresias.WithDelta(15*time.Minute))
//	result, err := t.Run(ctx, source)       // incremental: O(windowLen) memory
//	// or online, one timeunit at a time:
//	err = t.Warmup(historyUnits, start)
//	step, err := t.ProcessUnit(unit)
//
// Anomalies can be pushed to Sinks as they are found (WithSink), and a
// sharded Manager multiplexes many independent streams behind one
// Feed hot path. At scale the Manager runs pipelined (WithPipeline):
// per-shard worker goroutines behind bounded queues ingest
// asynchronously via EnqueueRuns — one job per shard per body — under
// a configurable backpressure policy, and detections land in a bounded
// queryable AnomalyIndex (WithAnomalyIndex) instead of vanishing with
// the return value.
//
// Detectors are durable: Snapshot serializes the full warm state to a
// versioned binary checkpoint and Restore resumes it mid-stream with
// bit-identical future detections (Manager.Checkpoint /
// ManagerFromCheckpoint do the same for a fleet).
//
// The package's mutexes form a declared hierarchy, machine-checked by
// tiresias-vet's lockorder analyzer: the checkpoint serializer is the
// only path that nests locks, taking the checkpoint mutex first, then
// the pipeline's (to drain queued records, each barrier sent under the
// pipeline's admission mutex), each shard's (to freeze its streams),
// and the stats mutex (to publish the outcome); shard locks nest over
// the anomaly index's. An enqueue holds the pipeline mutex over the
// admission mutex, as a drain does.
//
//tiresias:lockorder Manager.ckptMu < pipeline.mu < pipeline.admitMu
//tiresias:lockorder Manager.ckptMu < managerShard.mu < Index.mu
//tiresias:lockorder Manager.ckptMu < Manager.ckptStatsMu
package tiresias

import (
	"errors"
	"fmt"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/hierarchy"
	"tiresias/internal/seasonal"
)

// options collects configuration; adjusted through Option values.
type options struct {
	delta         time.Duration
	increment     time.Duration
	windowLen     int
	theta         float64
	thresholds    detect.Thresholds
	rule          algo.SplitRule
	ruleAlpha     float64
	refLevels     int
	lambda, eta   int
	hwAlpha       float64
	hwBeta        float64
	hwGamma       float64
	autoSeason    bool
	seasonPeriods []int // explicit seasonal periods (timeunits), max 2
	seasonXi      float64
	sinks         []Sink
	maxGap        int
}

// Option configures New.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithDelta sets the timeunit size Δ (default 15 minutes).
func WithDelta(d time.Duration) Option {
	return optionFunc(func(o *options) { o.delta = d })
}

// WithWindowLen sets ℓ, the sliding-window length in timeunits
// (default 672 = one week of 15-minute units; the paper's production
// value is 8064).
func WithWindowLen(l int) Option {
	return optionFunc(func(o *options) { o.windowLen = l })
}

// WithTheta sets the heavy-hitter threshold θ (default 10).
func WithTheta(theta float64) Option {
	return optionFunc(func(o *options) { o.theta = theta })
}

// WithThresholds sets the Definition-4 sensitivity thresholds
// (default RT=2.8, DT=8, the paper's operating point).
func WithThresholds(th Thresholds) Option {
	return optionFunc(func(o *options) { o.thresholds = th })
}

// WithSplitRule selects ADA's split rule (default Long-Term-History).
func WithSplitRule(r SplitRule) Option {
	return optionFunc(func(o *options) { o.rule = r })
}

// WithSplitEWMAAlpha sets the smoothing rate for the EWMA split rule.
func WithSplitEWMAAlpha(alpha float64) Option {
	return optionFunc(func(o *options) { o.ruleAlpha = alpha })
}

// WithReferenceLevels sets h, the number of top levels maintaining
// reference time series (default 2, the paper's accuracy/memory sweet
// spot).
func WithReferenceLevels(h int) Option {
	return optionFunc(func(o *options) { o.refLevels = h })
}

// WithMultiScale enables η geometric timescales with base λ (§V-B6).
func WithMultiScale(lambda, eta int) Option {
	return optionFunc(func(o *options) { o.lambda, o.eta = lambda, eta })
}

// WithIncrement sets the time increment ς by which the sliding window
// advances (§V-B6). When ς < Δ the detector runs at resolution ς with
// a λ = Δ/ς multi-timescale series, per the paper's reduction; ς must
// divide Δ. ς >= Δ (or zero) keeps the plain per-Δ stepping.
func WithIncrement(increment time.Duration) Option {
	return optionFunc(func(o *options) { o.increment = increment })
}

// WithHoltWinters sets the forecasting smoothing parameters.
func WithHoltWinters(alpha, beta, gamma float64) Option {
	return optionFunc(func(o *options) { o.hwAlpha, o.hwBeta, o.hwGamma = alpha, beta, gamma })
}

// WithSeasonality fixes the seasonal periods explicitly (in timeunits;
// one or two periods). xi weighs the first period when two are given
// (ignored otherwise). Disables automatic seasonality analysis.
func WithSeasonality(xi float64, periods ...int) Option {
	return optionFunc(func(o *options) {
		o.autoSeason = false
		o.seasonPeriods = periods
		o.seasonXi = xi
	})
}

// WithAutoSeasonality re-enables Step-3 automatic seasonality analysis
// (FFT + wavelet) over the warmup window; this is the default.
func WithAutoSeasonality() Option {
	return optionFunc(func(o *options) { o.autoSeason = true; o.seasonPeriods = nil })
}

// WithSink registers a Sink to receive anomalies and per-unit events
// as each timeunit is processed. May be given multiple times; sinks
// are notified in registration order. When at least one sink is
// registered, Run stops accumulating anomalies in RunResult (the sinks
// are the delivery path), keeping long runs at bounded memory.
func WithSink(s Sink) Option {
	return optionFunc(func(o *options) {
		if s != nil {
			o.sinks = append(o.sinks, s)
		}
	})
}

func defaultOptions() options {
	return options{
		delta:      15 * time.Minute,
		windowLen:  672,
		theta:      10,
		thresholds: detect.DefaultThresholds(),
		rule:       algo.LongTermHistory,
		ruleAlpha:  0.4,
		refLevels:  2,
		hwAlpha:    0.4,
		hwBeta:     0.05,
		hwGamma:    0.3,
		autoSeason: true,
		seasonXi:   0.76,
		maxGap:     DefaultMaxGap,
	}
}

// Tiresias is an online anomaly detector over hierarchical operational
// data. It is not safe for concurrent use; wrap with a mutex, use a
// Manager, or run one instance per stream.
type Tiresias struct {
	opts     options
	engine   *algo.ADA
	detector *detect.Detector
	warm     bool
	start    time.Time // start of the first timeunit
	warmLen  int       // units actually ingested by Warmup
	instance int

	// tree is the category hierarchy shared between the engine and
	// any windower feeding it, so record paths intern to the dense
	// node IDs the engine's flat hot path operates on.
	tree *hierarchy.Tree

	// Seasonality actually in use (filled during Warmup).
	periods []int
	xi      float64

	lastState *algo.StepState

	// du is ProcessUnit's reused dense form of its map-form unit.
	du algo.DenseUnit
}

// New constructs a Tiresias instance.
func New(opts ...Option) (*Tiresias, error) {
	o := defaultOptions()
	for _, op := range opts {
		op.apply(&o)
	}
	if o.delta <= 0 {
		return nil, fmt.Errorf("tiresias: delta must be > 0, got %v", o.delta)
	}
	if o.windowLen < 2 {
		return nil, fmt.Errorf("tiresias: window length must be >= 2, got %d", o.windowLen)
	}
	if o.increment != 0 {
		m, err := algo.MapScales(o.delta, o.increment)
		if err != nil {
			return nil, err
		}
		if !m.Identity() {
			// Run the engine at the fine resolution; the coarse
			// scale reconstitutes the original Δ units.
			o.delta = m.EngineDelta
			o.windowLen *= m.Lambda
			if o.lambda == 0 || o.eta < m.Eta {
				o.lambda, o.eta = m.Lambda, m.Eta
			}
		}
	}
	if len(o.seasonPeriods) > 2 {
		return nil, fmt.Errorf("tiresias: at most 2 seasonal periods, got %d", len(o.seasonPeriods))
	}
	for _, p := range o.seasonPeriods {
		if p < 1 {
			return nil, fmt.Errorf("tiresias: seasonal period must be >= 1, got %d", p)
		}
	}
	det, err := detect.New(o.thresholds)
	if err != nil {
		return nil, err
	}
	return &Tiresias{opts: o, detector: det, tree: hierarchy.New()}, nil
}

// Delta returns the configured timeunit size.
func (t *Tiresias) Delta() time.Duration { return t.opts.delta }

// WindowLen returns the configured sliding-window length ℓ in
// timeunits (after any WithIncrement rescaling).
func (t *Tiresias) WindowLen() int { return t.opts.windowLen }

// Warm reports whether Warmup has completed.
func (t *Tiresias) Warm() bool { return t.warm }

// SeasonalPeriods returns the seasonal periods in use after Warmup
// (nil before).
func (t *Tiresias) SeasonalPeriods() []int {
	return append([]int(nil), t.periods...)
}

// Engine exposes the underlying ADA engine (for experiment harnesses;
// treat as read-only). It is nil until Warmup or a warm Restore.
func (t *Tiresias) Engine() *algo.ADA { return t.engine }

// ErrNotWarm is returned by ProcessUnit before Warmup.
var ErrNotWarm = errors.New("tiresias: Warmup must complete before ProcessUnit")

// ErrWarm is returned by Warmup when the instance is already warm;
// call Reset first to re-warm.
var ErrWarm = errors.New("tiresias: already warm (call Reset to re-warm)")

// Warmup ingests the initial history window (oldest first) starting at
// the given wall-clock time, performs Step-3 seasonality analysis, and
// initializes the engine. len(units) should be the configured window
// length; shorter histories work with reduced forecast quality.
func (t *Tiresias) Warmup(units []Timeunit, start time.Time) error {
	if t.warm {
		return ErrWarm
	}
	t.start = start

	// Step 3: seasonality analysis over the total-count series.
	if t.opts.autoSeason {
		t.periods, t.xi = t.analyzeSeasonality(units)
	} else {
		t.periods = append([]int(nil), t.opts.seasonPeriods...)
		t.xi = t.opts.seasonXi
	}

	var err error
	t.engine, err = t.newEngine()
	if err != nil {
		return err
	}
	st, err := t.engine.Init(units)
	if err != nil {
		return err
	}
	t.lastState = st
	t.warmLen = len(units)
	t.instance = 0
	t.warm = true
	return nil
}

// Reset returns the instance to its pre-Warmup state, discarding the
// engine, learned seasonality, and all counters while keeping the
// configuration. After Reset, Warmup may be called again — e.g. to
// re-warm a detector on fresh history after a data outage.
func (t *Tiresias) Reset() {
	t.engine = nil
	t.warm = false
	t.start = time.Time{}
	t.warmLen = 0
	t.instance = 0
	t.periods = nil
	t.xi = 0
	t.lastState = nil
	t.tree = hierarchy.New()
}

// newEngine constructs the ADA engine from the current options and the
// learned seasonality (t.periods/t.xi must be set first). Shared by
// Warmup and checkpoint restore so the two paths cannot drift.
func (t *Tiresias) newEngine() (*algo.ADA, error) {
	cfg := algo.Config{
		Theta:         t.opts.theta,
		WindowLen:     t.opts.windowLen,
		Rule:          t.opts.rule,
		RuleAlpha:     t.opts.ruleAlpha,
		RefLevels:     t.opts.refLevels,
		NewForecaster: t.factory(),
		Lambda:        t.opts.lambda,
		Eta:           t.opts.eta,
		Tree:          t.tree,
	}
	return algo.NewADA(cfg)
}

// analyzeSeasonality runs FFT + wavelet analysis on the aggregate
// series and returns up to two seasonal periods (in timeunits) and the
// combination weight ξ.
func (t *Tiresias) analyzeSeasonality(units []Timeunit) ([]int, float64) {
	totals := make([]float64, len(units))
	for i, u := range units {
		totals[i] = u.Total()
	}
	peaks := seasonal.DominantPeriods(totals, t.opts.delta, 0.2, 2)
	// Cross-check with the wavelet detail energies: keep FFT peaks
	// only when the decomposition shows real multi-scale structure.
	if len(totals) >= 8 {
		levels := 1
		for (1 << (levels + 1)) < len(totals) {
			levels++
		}
		if levels > 8 {
			levels = 8
		}
		wl := seasonal.Decompose(totals, levels)
		if _, ok := wl.DominantScale(); !ok {
			peaks = nil
		}
	}
	var periods []int
	for _, p := range peaks {
		units := int(p.PeriodUnits + 0.5)
		if units >= 2 && 2*units <= len(totals) {
			periods = append(periods, units)
		}
	}
	xi := t.opts.seasonXi
	if len(peaks) >= 2 {
		xi = seasonal.SeasonWeight(peaks[0].Magnitude, peaks[1].Magnitude)
	}
	return periods, xi
}

// factory builds the forecaster factory from the selected seasonality.
func (t *Tiresias) factory() algo.ForecasterFactory {
	a, b, g := t.opts.hwAlpha, t.opts.hwBeta, t.opts.hwGamma
	switch len(t.periods) {
	case 0:
		// No seasonality: plain exponential smoothing, honoring the
		// configured α rather than DefaultFactory's fixed 0.5.
		return algo.EWMAFactory(a)
	case 1:
		return algo.HoltWintersFactory(a, b, g, t.periods[0])
	default:
		p1, p2 := t.periods[0], t.periods[1]
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return algo.DualSeasonFactory(a, b, g, t.xi, p1, p2)
	}
}

// StepResult combines the engine state and the anomalies of one
// processed timeunit.
type StepResult struct {
	// State is the engine's step outcome (heavy hitters, timings).
	// It is engine-owned scratch, reused on the next processed unit
	// so the steady-state step allocates nothing: read it before
	// processing further units, or copy what you need to retain.
	// Anomalies and UnitStart are the caller's to keep.
	State *algo.StepState
	// Anomalies lists Definition-4 violations in the newest unit.
	Anomalies []Anomaly
	// UnitStart is the wall-clock start of the processed unit.
	UnitStart time.Time
}

// ProcessUnit advances one timeunit (Step 6's "keep checking for new
// data" loop body) and returns detected anomalies. Registered sinks
// are notified before ProcessUnit returns: OnAnomaly once per anomaly
// (in detection order), then OnUnit once for the unit.
//
// The returned StepResult.State is only valid until the next unit is
// processed (see StepResult).
func (t *Tiresias) ProcessUnit(u Timeunit) (*StepResult, error) {
	if !t.warm {
		return nil, ErrNotWarm
	}
	t.du.Reset()
	t.du.AddTimeunit(t.tree, u)
	return t.processDense(&t.du)
}

// processDense is ProcessUnit for a timeunit in dense node-ID form
// (IDs interned into t's shared tree). It is the hot path behind Run
// and Manager.Feed.
func (t *Tiresias) processDense(u *algo.DenseUnit) (*StepResult, error) {
	if !t.warm {
		return nil, ErrNotWarm
	}
	st, err := t.engine.StepDense(u)
	if err != nil {
		return nil, err
	}
	return t.finishStep(st), nil
}

// finishStep runs the shared post-engine work of one unit: clock
// derivation, Definition-4 screening, and sink notification.
func (t *Tiresias) finishStep(st *algo.StepState) *StepResult {
	t.lastState = st
	t.instance++
	// Clock from the units actually warmed, not the configured window:
	// a short-history warmup must not skew timestamps into the future.
	unitStart := t.start.Add(time.Duration(t.warmLen+t.instance-1) * t.opts.delta)
	anoms := t.detector.Scan(st, unitStart)
	t.emit(st, anoms, unitStart)
	return &StepResult{State: st, Anomalies: anoms, UnitStart: unitStart}
}

// emit pushes one processed unit's events to the registered sinks.
func (t *Tiresias) emit(st *algo.StepState, anoms []Anomaly, unitStart time.Time) {
	if len(t.opts.sinks) == 0 {
		return
	}
	ev := UnitEvent{
		Instance:     st.Instance,
		Start:        unitStart,
		HeavyHitters: len(st.HeavyHitters),
		Anomalies:    len(anoms),
	}
	for _, s := range t.opts.sinks {
		for _, a := range anoms {
			s.OnAnomaly(a)
		}
		s.OnUnit(ev)
	}
}

// ingestUnitDense routes one completed dense timeunit from a bound
// windower: buffered for warmup until the window fills (nil result),
// screened for anomalies afterwards. During warmup the unit is
// converted to its map form (the warm buffer must outlive the pooled
// unit); once warm it flows to the engine's dense step untouched.
// first is the wall-clock start of the feed's first unit, used when
// the buffer triggers Warmup. Shared by Run and Manager so warmup
// semantics cannot drift between them.
func (t *Tiresias) ingestUnitDense(u *algo.DenseUnit, warmBuf *[]Timeunit, first time.Time) (*StepResult, error) {
	if !t.warm {
		*warmBuf = append(*warmBuf, u.Timeunit(t.tree))
		if len(*warmBuf) < t.opts.windowLen {
			return nil, nil
		}
		err := t.Warmup(*warmBuf, first)
		*warmBuf = nil
		return nil, err
	}
	return t.processDense(u)
}

// HeavyHitters returns the SHHH membership keys of the most recently
// processed timeunit (nil before Warmup).
func (t *Tiresias) HeavyHitters() []hierarchy.Key {
	if t.lastState == nil {
		return nil
	}
	out := make([]hierarchy.Key, 0, len(t.lastState.HeavyHitters))
	for _, hh := range t.lastState.HeavyHitters {
		out = append(out, hh.Node.Key)
	}
	return out
}
