package algo

import (
	"errors"

	"tiresias/internal/hierarchy"
	"tiresias/internal/shhh"
)

// errState guards the Init-before-Step contract.
var errState = errors.New("algo: engine used before Init (or Init called twice)")

// STA is the strawman engine of §V-A (Fig. 4). It retains all ℓ
// timeunits of the sliding window and, at each time instance,
// recomputes the SHHH set on the newest timeunit and reconstructs the
// full time series of every heavy hitter by one bottom-up traversal
// per retained timeunit. The forecasting model is refitted from the
// reconstructed history every instance.
//
// STA is exact by construction and serves as the ground truth that ADA
// is validated against (Fig. 12, Table V).
type STA struct {
	cfg      Config
	tree     *hierarchy.Tree
	window   []Timeunit // oldest first, length ℓ once warm
	instance int
	inited   bool

	// lastSeries caches the newest reconstruction so SeriesOf can
	// serve Fig.-12-style comparisons; keyed by node ID.
	lastSeries map[int][]float64
	lastFcast  map[int][]float64

	// Reusable scratch: the SHHH result, the per-unit frozen-weight
	// vector, recycled history slices, and the returned StepState.
	res       *shhh.Result
	wScratch  []float64
	sliceFree [][]float64
	snap      StepState
}

var _ Engine = (*STA)(nil)

// NewSTA constructs an STA engine. The Config's split-rule fields are
// ignored (STA never splits).
func NewSTA(cfg Config) (*STA, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	tree := cfg.Tree
	if tree == nil {
		tree = hierarchy.New()
	}
	return &STA{
		cfg:        cfg,
		tree:       tree,
		lastSeries: make(map[int][]float64),
		lastFcast:  make(map[int][]float64),
	}, nil
}

// Name implements Engine.
func (s *STA) Name() string { return "STA" }

// Tree implements Engine.
func (s *STA) Tree() *hierarchy.Tree { return s.tree }

// Init implements Engine: it ingests the initial window (line 2 of
// Fig. 4 with κ = ℓ) and runs the first detection pass.
func (s *STA) Init(window []Timeunit) (*StepState, error) {
	if s.inited {
		return nil, errState
	}
	s.inited = true
	s.window = make([]Timeunit, 0, s.cfg.WindowLen)
	for _, u := range window {
		s.ingest(u)
	}
	if len(s.window) == 0 {
		s.ingest(Timeunit{})
	}
	return s.process()
}

// StepDense implements Engine: STA retains map-form timeunits for its
// window, so the dense unit is converted on entry (the strawman is the
// baseline, not the hot path).
func (s *STA) StepDense(u *DenseUnit) (*StepState, error) {
	if !s.inited {
		return nil, errState
	}
	s.instance++
	s.window = append(s.window, u.Timeunit(s.tree))
	if len(s.window) > s.cfg.WindowLen {
		s.window = s.window[1:]
	}
	return s.process()
}

// ingest appends a timeunit, evicting the oldest beyond ℓ, and grows
// the tree with any unseen categories.
func (s *STA) ingest(u Timeunit) {
	cp := make(Timeunit, len(u))
	for k, v := range u {
		cp[k] = v
		s.tree.InsertKey(k)
	}
	s.window = append(s.window, cp)
	if len(s.window) > s.cfg.WindowLen {
		s.window = s.window[1:]
	}
}

// process runs lines 6-9 of Fig. 4: SHHH on the newest timeunit, then
// series reconstruction over every retained timeunit, then forecast.
// Scratch (the SHHH result, the frozen-weight vector, and the history
// slices recycled from the previous reconstruction) is reused across
// instances.
func (s *STA) process() (*StepState, error) {
	newest := s.window[len(s.window)-1]

	start := now()
	s.res = shhh.ComputeInto(s.tree, newest, s.cfg.Theta, s.res)
	res := s.res
	tUpdate := now().Sub(start)

	// Reconstruct T[n, i] for each heavy hitter across the window,
	// one frozen bottom-up traversal per timeunit (the STA
	// bottleneck the paper measures in Table III).
	start = now()
	s.recycleLast()
	hhs := res.Set
	seriesOf := make(map[int][]float64, len(hhs))
	for _, n := range hhs {
		seriesOf[n.ID] = s.getSlice(len(s.window))
	}
	for _, u := range s.window {
		s.wScratch = shhh.FrozenWeightsInto(s.tree, u, res.InSet, s.wScratch)
		for _, n := range hhs {
			seriesOf[n.ID] = append(seriesOf[n.ID], s.wScratch[n.ID])
		}
	}
	tSeries := now().Sub(start)

	// Refit the forecasting model per heavy hitter and forecast the
	// newest timeunit from the preceding history.
	start = now()
	state := &s.snap
	state.Instance = s.instance
	state.HeavyHitters = state.HeavyHitters[:0]
	for _, n := range hhs {
		ts := seriesOf[n.ID]
		hist := ts[:len(ts)-1]
		model := s.cfg.NewForecaster(hist)
		fc := model.Forecast()
		state.HeavyHitters = append(state.HeavyHitters, HeavyHitter{
			Node:     n,
			Actual:   ts[len(ts)-1],
			Forecast: fc,
		})
		s.lastSeries[n.ID] = ts
		// Reconstruct the forecast trajectory for analysis: replay
		// the model over the history.
		fseries := s.getSlice(len(ts))
		replay := s.cfg.NewForecaster(nil)
		for _, v := range ts {
			fseries = append(fseries, replay.Forecast())
			replay.Update(v)
		}
		s.lastFcast[n.ID] = fseries
	}
	sortHHs(state.HeavyHitters)
	state.Timings = StageTimings{
		UpdatingHierarchies: tUpdate,
		CreatingTimeSeries:  tSeries,
		DetectingAnomalies:  now().Sub(start),
	}
	return state, nil
}

// recycleLast empties the previous reconstruction caches, keeping the
// slice backing arrays for reuse.
func (s *STA) recycleLast() {
	for id, ts := range s.lastSeries {
		s.sliceFree = append(s.sliceFree, ts[:0])
		delete(s.lastSeries, id)
	}
	for id, ts := range s.lastFcast {
		s.sliceFree = append(s.sliceFree, ts[:0])
		delete(s.lastFcast, id)
	}
}

// getSlice returns an empty float slice, preferring a recycled one.
// An undersized recycled slice is still handed out — the caller's
// appends grow it and it re-enters the pool at the larger capacity —
// so the pool is never drained by capacity misses.
func (s *STA) getSlice(capacity int) []float64 {
	if n := len(s.sliceFree); n > 0 {
		out := s.sliceFree[n-1]
		s.sliceFree = s.sliceFree[:n-1]
		return out
	}
	return make([]float64, 0, capacity)
}

// SeriesOf implements Engine.
func (s *STA) SeriesOf(n *hierarchy.Node) []float64 {
	ts, ok := s.lastSeries[n.ID]
	if !ok {
		return nil
	}
	return append([]float64(nil), ts...)
}

// ForecastSeriesOf implements Engine.
func (s *STA) ForecastSeriesOf(n *hierarchy.Node) []float64 {
	ts, ok := s.lastFcast[n.ID]
	if !ok {
		return nil
	}
	return append([]float64(nil), ts...)
}

// Memory implements Engine. STA's state is dominated by the ℓ retained
// timeunit trees (count maps) plus the newest reconstruction.
func (s *STA) Memory() MemoryStats {
	m := MemoryStats{TreeNodes: s.tree.Len()}
	for _, u := range s.window {
		// Each retained entry carries a key reference and a count;
		// approximate as 2 float-sized slots, mirroring a tree node
		// holding a label pointer and a counter.
		m.AuxFloats += 2 * len(u)
	}
	for _, ts := range s.lastSeries {
		m.SeriesFloats += len(ts)
	}
	for _, ts := range s.lastFcast {
		m.SeriesFloats += len(ts)
	}
	return m
}

// sortHHs orders heavy hitters by node ID for determinism.
func sortHHs(hhs []HeavyHitter) {
	for i := 1; i < len(hhs); i++ {
		for j := i; j > 0 && hhs[j].Node.ID < hhs[j-1].Node.ID; j-- {
			hhs[j], hhs[j-1] = hhs[j-1], hhs[j]
		}
	}
}
