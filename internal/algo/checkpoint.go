package algo

// Engine checkpoint support: ADA exports its full dynamic state into the
// flat, serializable EngineState and reimports it into a freshly
// constructed ADA sharing the same Config and hierarchy. The round trip
// is exact — a restored engine steps bit-identically to one that never
// stopped — which is what the public Snapshot/Restore API builds on.
// STA, the test and experiments reference, is never checkpointed.

import (
	"fmt"

	"tiresias/internal/forecast"
	"tiresias/internal/series"
)

// RingState is the serializable form of a series.Ring: its capacity
// plus the live samples oldest-first (the physical head position is
// not observable and not retained).
type RingState struct {
	// Cap is the ring capacity (the window length ℓ for engine rings).
	Cap int
	// Values holds the live samples, oldest first.
	Values []float64
}

func captureRing(r *series.Ring) RingState {
	return RingState{Cap: r.Cap(), Values: r.Values()}
}

// restoreRing rebuilds the ring held in the named field, requiring the
// stated capacity to match wantCap (engine rings must share the window
// length or later AddRing/CopyFrom calls would fail mid-stream).
func restoreRing(field string, st RingState, wantCap int) (*series.Ring, error) {
	if st.Cap != wantCap {
		return nil, fmt.Errorf("algo: checkpoint %s ring capacity %d, engine window is %d", field, st.Cap, wantCap)
	}
	if len(st.Values) > st.Cap {
		return nil, fmt.Errorf("algo: checkpoint %s ring holds %d samples over capacity %d", field, len(st.Values), st.Cap)
	}
	r := series.NewRing(st.Cap)
	r.SetValues(st.Values)
	return r, nil
}

// restoreMulti rebuilds a multi-scale series, requiring the engine's
// shape (λ, η, ℓ): every holder must share it, or a later SPLIT's
// in-place copy would fail mid-stream.
func (a *ADA) restoreMulti(st series.MultiScaleState) (*series.MultiScale, error) {
	if a.cfg.Eta <= 1 || st.Lambda != a.cfg.Lambda || len(st.Scales) != a.cfg.Eta || st.Ell != a.cfg.WindowLen {
		return nil, fmt.Errorf("algo: multi-scale shape (λ=%d, η=%d, ℓ=%d) in checkpoint, engine is (λ=%d, η=%d, ℓ=%d)",
			st.Lambda, len(st.Scales), st.Ell, a.cfg.Lambda, a.cfg.Eta, a.cfg.WindowLen)
	}
	return series.RestoreMultiScale(st)
}

// SeriesState is the serializable per-heavy-hitter series bundle of
// ADA: the actual ring, the held forecast, the live forecasting model,
// and the optional multi-timescale structure.
type SeriesState struct {
	// ID is the dense node ID owning the series.
	ID int
	// Actual mirrors nodeSeries.actual.
	Actual RingState
	// Forecast is the model's forecast of Actual's newest sample, made
	// before the model observed it.
	Forecast float64
	// Model is the captured forecasting model.
	Model forecast.State
	// Multi is the captured §V-B6 multi-timescale state, nil when
	// multi-scale tracking is disabled.
	Multi *series.MultiScaleState
}

// RefState is the serializable reference-series entry of §V-B5.
type RefState struct {
	// ID is the dense node ID the reference series belongs to.
	ID int
	// Ring holds the raw-weight reference series.
	Ring RingState
}

// EngineState is the full dynamic state of an ADA engine, exported by
// ADA.ExportState and consumed by ADA.ImportState on a fresh engine
// with the same Config and hierarchy. Scratch buffers, pools, and
// per-instance transient marks are deliberately absent: they are
// empty/cleared at every step boundary, so omitting them preserves
// step-for-step equivalence.
type EngineState struct {
	// Instance is the 0-based index of the last processed instance.
	Instance int

	// ADA per-node arrays, indexed by dense node ID (length = tree
	// size at export): the exported columns of its per-node state, in
	// declaration order (see Columns). InSHHH is written from the SHHH
	// member set. PrevA, CumA and EwmaA are the split-rule statistics
	// of LastTimeUnit, LongTermHistory and EWMARule: the engine keeps
	// only its rule's, and exports the other two all zero.
	InSHHH []bool
	Ishh   []bool
	Weight []float64
	RawA   []float64
	PrevA  []float64
	CumA   []float64
	EwmaA  []float64
	// Series lists the live per-node series bundles in ascending ID
	// order.
	Series []SeriesState
	// Refs lists the §V-B5 reference series in ascending ID order.
	Refs []RefState
	// RefCovered is the tree size when reference coverage was last
	// ensured.
	RefCovered int
}

// ExportState snapshots the engine's full dynamic state for the
// checkpoint subsystem; it errors before Init. The returned state
// deep-copies every ring and model, so it stays valid while the engine
// keeps stepping.
func (a *ADA) ExportState() (*EngineState, error) {
	if !a.inited {
		return nil, errState
	}
	// Records interned since the last step may have grown the tree past
	// the per-node arrays; grow now so the exported arrays line up with
	// the exported hierarchy.
	a.grow()
	n := a.tree.Len()
	for id := range a.xAt { // EWMARule only
		a.ewmaThrough(id, a.instance)
	}
	st := &EngineState{Instance: a.instance, RefCovered: a.refCovered}
	a.export(st, n)
	for id, ns := range a.state {
		if ns == nil {
			continue
		}
		model, err := forecast.Capture(ns.model)
		if err != nil {
			return nil, fmt.Errorf("algo: node %d: %w", id, err)
		}
		ss := SeriesState{
			ID:       id,
			Actual:   captureRing(ns.actual),
			Forecast: ns.forecast,
			Model:    model,
		}
		if ns.multi != nil {
			ms := ns.multi.State()
			ss.Multi = &ms
		}
		st.Series = append(st.Series, ss)
	}
	for i, id := range a.refIDs {
		st.Refs = append(st.Refs, RefState{ID: int(id), Ring: captureRing(a.refActual[i])})
	}
	return st, nil
}

// ImportState loads an exported state into a freshly constructed ADA
// whose Config and hierarchy match the exporting engine, and returns
// the rebuilt StepState of the last processed instance. The engine
// must not have been Init-ed. Of PrevA, CumA and EwmaA only the split
// rule's statistic is loaded; the other two are ignored.
func (a *ADA) ImportState(st *EngineState) (*StepState, error) {
	if a.inited {
		return nil, errState
	}
	n := a.tree.Len()
	if err := a.covers(st, n); err != nil {
		return nil, err
	}
	if st.RefCovered < 0 || st.RefCovered > n {
		return nil, fmt.Errorf("algo: checkpoint RefCovered %d out of range [0,%d]", st.RefCovered, n)
	}
	if st.Instance < 0 {
		return nil, fmt.Errorf("algo: checkpoint Instance %d is negative", st.Instance)
	}
	a.inited = true
	a.instance = st.Instance
	a.grow()
	a.load(st)
	for _, ss := range st.Series {
		if ss.ID < 0 || ss.ID >= n || a.state[ss.ID] != nil {
			return nil, fmt.Errorf("algo: checkpoint Series ID %d duplicated or outside hierarchy of %d nodes", ss.ID, n)
		}
		actual, err := restoreRing("Series.Actual", ss.Actual, a.cfg.WindowLen)
		if err != nil {
			return nil, err
		}
		model, err := forecast.Restore(ss.Model)
		if err != nil {
			return nil, fmt.Errorf("algo: node %d: %w", ss.ID, err)
		}
		ns := &nodeSeries{actual: actual, forecast: ss.Forecast, model: model}
		if ss.Multi != nil {
			ns.multi, err = a.restoreMulti(*ss.Multi)
			if err != nil {
				return nil, fmt.Errorf("algo: node %d: %w", ss.ID, err)
			}
		} else if a.cfg.Eta > 1 {
			return nil, fmt.Errorf("algo: checkpoint Series ID %d has no Multi state, engine keeps %d scales", ss.ID, a.cfg.Eta)
		}
		a.state[ss.ID] = ns
	}
	for _, rs := range st.Refs {
		if k := len(a.refIDs); rs.ID < 0 || rs.ID >= n || k > 0 && rs.ID <= int(a.refIDs[k-1]) {
			return nil, fmt.Errorf("algo: checkpoint Refs ID %d duplicated, out of ID order or outside hierarchy of %d nodes", rs.ID, n)
		}
		ring, err := restoreRing("Refs.Ring", rs.Ring, a.cfg.WindowLen)
		if err != nil {
			return nil, err
		}
		a.addRef(rs.ID, ring)
	}
	a.indexState()
	a.refCovered = st.RefCovered
	return a.snapshot(), nil
}
