// Package tiresias is the public API of the Tiresias reproduction: an
// online anomaly detector over hierarchical operational data streams
// (Hong et al., ICDCS 2012). It wires the full pipeline of Fig. 3 —
// windowing (Step 1), heavy-hitter detection and time-series
// construction (Step 2), seasonality analysis (Step 3), seasonal
// forecasting (Step 4), and anomaly reporting (Steps 5–6) — behind a
// small streaming-first surface:
//
//	t, err := tiresias.New(tiresias.WithTheta(10), tiresias.WithDelta(15*time.Minute))
//	result, err := t.Run(ctx, source) // incremental: O(windowLen) memory
//	// or many streams, online, a batch of records at a time:
//	m, err := tiresias.NewManager(tiresias.WithDetectorOptions(opts...))
//	anoms, _, err := m.FeedBatch("stream", records)
//
// Records are the only way into a detector: it windows them into
// timeunits itself, warms up on the first windowLen units, and screens
// every unit after. Anomalies can be pushed to Sinks as they are found
// (WithSink), and a sharded Manager multiplexes many independent
// streams behind one FeedBatch hot path. At scale the Manager runs
// pipelined (WithPipeline): per-shard worker goroutines behind bounded
// queues ingest asynchronously via EnqueueRuns — one job per shard per
// body — under a configurable backpressure policy, and detections land
// in a bounded queryable AnomalyIndex (WithAnomalyIndex) instead of
// vanishing with the return value.
//
// Detectors are durable: Snapshot serializes the full warm state to a
// versioned binary checkpoint and Restore resumes it mid-stream with
// bit-identical future detections (Manager.Checkpoint /
// ManagerFromCheckpoint do the same for a fleet).
//
// The package's mutexes form a declared hierarchy, machine-checked by
// tiresias-vet's locks analyzer: the checkpoint serializer is the
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
	"fmt"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/checkpoint"
	"tiresias/internal/detect"
	"tiresias/internal/hierarchy"
)

// options collects configuration; adjusted through Option values. The
// embedded Config is what a checkpoint carries (Snapshot writes it,
// Restore starts from it); sinks hold live resources and are
// re-attached through Restore's opts.
type options struct {
	checkpoint.Config
	sinks []Sink
}

// Option configures New.
type Option interface {
	apply(*options)
}

type optionFunc func(*options)

func (f optionFunc) apply(o *options) { f(o) }

// WithDelta sets the timeunit size Δ (default 15 minutes).
func WithDelta(d time.Duration) Option {
	return optionFunc(func(o *options) { o.Delta = d })
}

// WithWindowLen sets ℓ, the sliding-window length in timeunits
// (default 672 = one week of 15-minute units; the paper's production
// value is 8064).
func WithWindowLen(l int) Option {
	return optionFunc(func(o *options) { o.WindowLen = l })
}

// WithTheta sets the heavy-hitter threshold θ (default 10).
func WithTheta(theta float64) Option {
	return optionFunc(func(o *options) { o.Theta = theta })
}

// WithThresholds sets the Definition-4 sensitivity thresholds
// (default RT=2.8, DT=8, the paper's operating point).
func WithThresholds(th Thresholds) Option {
	return optionFunc(func(o *options) { o.Thresholds = th })
}

// WithSplitRule selects ADA's split rule (default Long-Term-History).
// The engine keeps one statistic per node, the one its rule reads
// (none under Uniform), and a checkpoint carries only that one, so the
// rule is structural: Restore refuses to change it.
func WithSplitRule(r SplitRule) Option {
	return optionFunc(func(o *options) { o.Rule = r })
}

// WithSplitEWMAAlpha sets the smoothing rate for the EWMA split rule,
// in (0, 1] (default 0.4).
func WithSplitEWMAAlpha(alpha float64) Option {
	return optionFunc(func(o *options) { o.RuleAlpha = alpha })
}

// WithReferenceLevels sets h, the number of top levels maintaining
// reference time series (default 2, the paper's accuracy/memory sweet
// spot).
func WithReferenceLevels(h int) Option {
	return optionFunc(func(o *options) { o.RefLevels = h })
}

// WithMultiScale enables η geometric timescales with base λ (§V-B6).
func WithMultiScale(lambda, eta int) Option {
	return optionFunc(func(o *options) { o.Lambda, o.Eta = lambda, eta })
}

// WithIncrement sets the time increment ς by which the sliding window
// advances (§V-B6). When ς < Δ the detector runs at resolution ς with
// a λ = Δ/ς multi-timescale series, per the paper's reduction; ς must
// divide Δ. ς >= Δ (or zero) keeps the plain per-Δ stepping.
func WithIncrement(increment time.Duration) Option {
	return optionFunc(func(o *options) { o.Increment = increment })
}

// WithHoltWinters sets the forecasting smoothing parameters, each in
// [0, 1] (default 0.4, 0.05, 0.3).
func WithHoltWinters(alpha, beta, gamma float64) Option {
	return optionFunc(func(o *options) { o.HWAlpha, o.HWBeta, o.HWGamma = alpha, beta, gamma })
}

// WithSeasonality fixes the seasonal periods explicitly (in timeunits;
// one or two periods). xi weighs the first period when two are given
// (ignored otherwise). Disables automatic seasonality analysis.
func WithSeasonality(xi float64, periods ...int) Option {
	return optionFunc(func(o *options) {
		o.AutoSeason = false
		o.SeasonPeriods = periods
		o.SeasonXi = xi
	})
}

// WithAutoSeasonality re-enables Step-3 automatic seasonality analysis
// (FFT + wavelet) over the warmup window; this is the default.
func WithAutoSeasonality() Option {
	return optionFunc(func(o *options) { o.AutoSeason = true; o.SeasonPeriods = nil })
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

// DefaultMaxGap bounds how many timeunits a single record may
// force-complete when it jumps past the current unit (gap filling
// across quiet periods). It caps the work and allocation one
// bad-timestamp record can trigger — important when FeedBatch is wired
// to an ingest endpoint. Both Run and Manager.FeedBatch enforce it unless
// overridden with WithMaxGap.
const DefaultMaxGap = 100_000

// WithMaxGap bounds gap filling: when a record's timestamp jumps past
// the current timeunit, the windower emits one empty timeunit per
// elapsed Δ (so seasonal phase and timestamps stay honest across quiet
// periods), and each emitted unit is screened like any other. A single
// record may force-complete at most n such units; a record further in
// the future than n·Δ is rejected with an error (stream.ErrMaxGap)
// before any windowing state changes, so the stream stays usable at
// sane timestamps. n <= 0 disables the bound entirely — acceptable
// only for trusted feeds, since one bad far-future timestamp then
// fabricates unbounded empty units. The default is DefaultMaxGap. It
// bounds Run and Manager.FeedBatch alike (give it to a Manager through
// WithDetectorOptions) and is carried through every checkpoint.
func WithMaxGap(n int) Option {
	return optionFunc(func(o *options) { o.MaxGap = n })
}

func defaultOptions() options {
	return options{Config: checkpoint.DefaultConfig()}
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
	warmLen  int       // units the warm-up window actually held
	instance int

	// tree is the category hierarchy shared between the engine and
	// any windower feeding it, so record paths intern to the dense
	// node IDs the engine's flat hot path operates on.
	tree *hierarchy.Tree

	// Seasonality actually in use (filled at warm-up).
	periods []int
	xi      float64

	lastState *algo.StepState

	// win is the Step-1 windowing state Run and Manager.FeedBatch share.
	win window
}

// New constructs a Tiresias instance. It refuses option values
// outside their ranges, so a bad configuration fails here and not a
// window later at warm-up.
func New(opts ...Option) (*Tiresias, error) {
	o := defaultOptions()
	for _, op := range opts {
		op.apply(&o)
	}
	if o.Delta <= 0 {
		return nil, fmt.Errorf("tiresias: delta must be > 0, got %v", o.Delta)
	}
	if o.WindowLen < 2 {
		return nil, fmt.Errorf("tiresias: window length must be >= 2, got %d", o.WindowLen)
	}
	if o.Increment != 0 {
		m, err := algo.MapScales(o.Delta, o.Increment)
		if err != nil {
			return nil, err
		}
		if !m.Identity() {
			// Run the engine at the fine resolution; the coarse
			// scale reconstitutes the original Δ units.
			o.Delta = m.EngineDelta
			o.WindowLen *= m.Lambda
			if o.Lambda == 0 || o.Eta < m.Eta {
				o.Lambda, o.Eta = m.Lambda, m.Eta
			}
		}
	}
	if len(o.SeasonPeriods) > 2 {
		return nil, fmt.Errorf("tiresias: at most 2 seasonal periods, got %d", len(o.SeasonPeriods))
	}
	for _, p := range o.SeasonPeriods {
		if p < 1 {
			return nil, fmt.Errorf("tiresias: seasonal period must be >= 1, got %d", p)
		}
	}
	// The engine is built only at warm-up, a window in; check what it
	// will be given now.
	cfg := o.Engine(o.SeasonPeriods, o.SeasonXi)
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("tiresias: %s: %w", optionOf[err.(*algo.ConfigError).Field], err)
	}
	for _, v := range [...]float64{o.HWAlpha, o.HWBeta, o.HWGamma} {
		if !(v >= 0 && v <= 1) {
			return nil, fmt.Errorf("tiresias: WithHoltWinters: alpha, beta and gamma must be in [0, 1], got %v, %v, %v", o.HWAlpha, o.HWBeta, o.HWGamma)
		}
	}
	det, err := detect.New(o.Thresholds)
	if err != nil {
		return nil, err
	}
	return &Tiresias{opts: o, detector: det, tree: hierarchy.New()}, nil
}

// Delta returns the configured timeunit size.
func (t *Tiresias) Delta() time.Duration { return t.opts.Delta }

// WindowLen returns the configured sliding-window length ℓ in
// timeunits (after any WithIncrement rescaling).
func (t *Tiresias) WindowLen() int { return t.opts.WindowLen }

// Warm reports whether the detector has warmed up: its first
// WindowLen timeunits are windowed (or Run reached the end of a shorter
// stream) and every later unit is screened.
func (t *Tiresias) Warm() bool { return t.warm }

// SeasonalPeriods returns the seasonal periods in use after warm-up
// (nil before).
func (t *Tiresias) SeasonalPeriods() []int {
	return append([]int(nil), t.periods...)
}

// Engine exposes the underlying ADA engine (for experiment harnesses;
// treat as read-only). It is nil until the detector warms up or is
// restored warm.
func (t *Tiresias) Engine() *algo.ADA { return t.engine }

// finishWarmup warms the detector up on its buffered units: Step-3
// seasonality analysis over their totals, then the engine's first
// instance.
func (t *Tiresias) finishWarmup() error {
	units := t.win.buf
	t.win.buf = nil
	t.start = t.win.first
	t.periods, t.xi = t.opts.Seasonality(units)
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

// newEngine constructs the ADA engine from the current options and the
// learned seasonality (t.periods/t.xi must be set first). Shared by
// warm-up and checkpoint restore so the two paths cannot drift.
func (t *Tiresias) newEngine() (*algo.ADA, error) {
	cfg := t.opts.Engine(t.periods, t.xi)
	cfg.Tree = t.tree
	return algo.NewADA(cfg)
}

// optionOf names the Option that sets each algo.Config field New
// validates.
var optionOf = map[string]string{
	"Theta":     "WithTheta",
	"WindowLen": "WithWindowLen",
	"Rule":      "WithSplitRule",
	"RuleAlpha": "WithSplitEWMAAlpha",
	"RefLevels": "WithReferenceLevels",
	"Lambda":    "WithMultiScale",
}

// stepResult is one screened timeunit, as Run and Manager tally it.
type stepResult struct {
	// state is the engine's step outcome, engine-owned scratch reused
	// on the next unit; anomalies are the caller's to keep.
	state     *algo.StepState
	anomalies []Anomaly
}

// screen processes one completed unit once warm: the engine's dense
// step, then clock derivation, Definition-4 screening, and sink
// notification.
func (t *Tiresias) screen(u *algo.DenseUnit) (stepResult, error) {
	st, err := t.engine.StepDense(u)
	if err != nil {
		return stepResult{}, err
	}
	t.lastState = st
	t.instance++
	// Clock from the units actually warmed, not the configured window:
	// a short-history warm-up must not skew timestamps into the future.
	unitStart := t.start.Add(time.Duration(t.warmLen+t.instance-1) * t.opts.Delta)
	anoms := t.detector.Scan(st, unitStart)
	t.emit(st, anoms, unitStart)
	return stepResult{state: st, anomalies: anoms}, nil
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
		Timings:      st.Timings,
	}
	for _, s := range t.opts.sinks {
		for _, a := range anoms {
			s.OnAnomaly(a)
		}
		s.OnUnit(ev)
	}
}

// HeavyHitters returns the SHHH membership keys of the most recently
// processed timeunit (nil before warm-up).
func (t *Tiresias) HeavyHitters() []hierarchy.Key {
	if t.lastState == nil {
		return nil
	}
	out := make([]hierarchy.Key, 0, len(t.lastState.HeavyHitters))
	for _, hh := range t.lastState.HeavyHitters {
		out = append(out, hh.Key)
	}
	return out
}
