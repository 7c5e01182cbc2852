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

// restoreRing rebuilds a ring, requiring the stated capacity to match
// wantCap (engine rings must share the window length or later
// AddRing/CopyFrom calls would fail mid-stream).
func restoreRing(st RingState, wantCap int) (*series.Ring, error) {
	if st.Cap != wantCap {
		return nil, fmt.Errorf("algo: ring capacity %d in checkpoint, engine window is %d", st.Cap, wantCap)
	}
	if len(st.Values) > st.Cap {
		return nil, fmt.Errorf("algo: ring holds %d samples over capacity %d", len(st.Values), st.Cap)
	}
	r := series.NewRing(st.Cap)
	r.SetValues(st.Values)
	return r, nil
}

// SeriesState is the serializable per-heavy-hitter series bundle of
// ADA: both rings, the live forecasting model, and the optional
// multi-timescale structure.
type SeriesState struct {
	// ID is the dense node ID owning the series.
	ID int
	// Actual and Fcast mirror nodeSeries.actual / nodeSeries.fcast.
	Actual, Fcast RingState
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
	// Model is the captured reference forecasting model.
	Model forecast.State
}

// EngineState is the full dynamic state of an ADA engine, exported by
// ADA.ExportState and consumed by ADA.ImportState on a fresh engine
// with the same Config and hierarchy. Scratch buffers, pools, and
// per-instance transient marks are deliberately absent: they are
// empty/cleared at every step boundary, so omitting them preserves
// step-for-step equivalence.
type EngineState struct {
	// Kind is the engine name ("ADA").
	Kind string
	// Instance is the 0-based index of the last processed instance.
	Instance int

	// ADA per-node arrays, indexed by dense node ID (length = tree
	// size at export).
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
	for id := 0; id < n; id++ {
		a.ewmaThrough(id, a.instance)
	}
	st := &EngineState{
		Kind:       a.Name(),
		Instance:   a.instance,
		InSHHH:     append([]bool(nil), a.inSHHH[:n]...),
		Ishh:       append([]bool(nil), a.ishh[:n]...),
		Weight:     append([]float64(nil), a.weight[:n]...),
		RawA:       append([]float64(nil), a.rawA[:n]...),
		PrevA:      append([]float64(nil), a.prevA[:n]...),
		CumA:       append([]float64(nil), a.cumA[:n]...),
		EwmaA:      append([]float64(nil), a.ewmaA[:n]...),
		RefCovered: a.refCovered,
	}
	for id, ns := range a.state {
		if ns == nil {
			continue
		}
		model, err := forecast.Capture(ns.model)
		if err != nil {
			return nil, fmt.Errorf("algo: node %d: %w", id, err)
		}
		ss := SeriesState{
			ID:     id,
			Actual: captureRing(ns.actual),
			Fcast:  captureRing(ns.fcast),
			Model:  model,
		}
		if ns.multi != nil {
			ms := ns.multi.State()
			ss.Multi = &ms
		}
		st.Series = append(st.Series, ss)
	}
	for i, id := range a.refIDs {
		model, err := forecast.Capture(a.refModel[i])
		if err != nil {
			return nil, fmt.Errorf("algo: reference %d: %w", id, err)
		}
		st.Refs = append(st.Refs, RefState{ID: int(id), Ring: captureRing(a.refActual[i]), Model: model})
	}
	return st, nil
}

// ImportState loads an exported state into a freshly constructed ADA
// whose Config and hierarchy match the exporting engine, and returns
// the rebuilt StepState of the last processed instance. The engine
// must not have been Init-ed.
func (a *ADA) ImportState(st *EngineState) (*StepState, error) {
	if a.inited {
		return nil, errState
	}
	if st.Kind != a.Name() {
		return nil, fmt.Errorf("algo: checkpoint holds %s state, engine is %s", st.Kind, a.Name())
	}
	n := a.tree.Len()
	if len(st.InSHHH) != n || len(st.Ishh) != n || len(st.Weight) != n || len(st.RawA) != n ||
		len(st.PrevA) != n || len(st.CumA) != n || len(st.EwmaA) != n {
		return nil, fmt.Errorf("algo: checkpoint arrays cover %d nodes, hierarchy has %d", len(st.InSHHH), n)
	}
	if st.RefCovered < 0 || st.RefCovered > n {
		return nil, fmt.Errorf("algo: checkpoint RefCovered %d out of range [0,%d]", st.RefCovered, n)
	}
	if st.Instance < 0 {
		return nil, fmt.Errorf("algo: checkpoint instance %d is negative", st.Instance)
	}
	a.inited = true
	a.instance = st.Instance
	a.grow()
	copy(a.inSHHH, st.InSHHH)
	copy(a.ishh, st.Ishh)
	copy(a.weight, st.Weight)
	copy(a.rawA, st.RawA)
	copy(a.prevA, st.PrevA)
	copy(a.cumA, st.CumA)
	copy(a.ewmaA, st.EwmaA)
	for _, ss := range st.Series {
		if ss.ID < 0 || ss.ID >= n {
			return nil, fmt.Errorf("algo: series for node %d outside hierarchy of %d nodes", ss.ID, n)
		}
		if a.state[ss.ID] != nil {
			return nil, fmt.Errorf("algo: duplicate series for node %d", ss.ID)
		}
		actual, err := restoreRing(ss.Actual, a.cfg.WindowLen)
		if err != nil {
			return nil, err
		}
		fcast, err := restoreRing(ss.Fcast, a.cfg.WindowLen)
		if err != nil {
			return nil, err
		}
		model, err := forecast.Restore(ss.Model)
		if err != nil {
			return nil, fmt.Errorf("algo: node %d: %w", ss.ID, err)
		}
		ns := &nodeSeries{actual: actual, fcast: fcast, model: model}
		if ss.Multi != nil {
			ns.multi, err = series.RestoreMultiScale(*ss.Multi)
			if err != nil {
				return nil, fmt.Errorf("algo: node %d: %w", ss.ID, err)
			}
		}
		a.state[ss.ID] = ns
	}
	for _, rs := range st.Refs {
		if rs.ID < 0 || rs.ID >= n {
			return nil, fmt.Errorf("algo: reference for node %d outside hierarchy of %d nodes", rs.ID, n)
		}
		if k := len(a.refIDs); k > 0 && rs.ID <= int(a.refIDs[k-1]) {
			return nil, fmt.Errorf("algo: reference series for node %d duplicated or out of ID order", rs.ID)
		}
		ring, err := restoreRing(rs.Ring, a.cfg.WindowLen)
		if err != nil {
			return nil, err
		}
		model, err := forecast.Restore(rs.Model)
		if err != nil {
			return nil, fmt.Errorf("algo: reference %d: %w", rs.ID, err)
		}
		a.addRef(rs.ID, ring, model)
	}
	a.indexState()
	a.refCovered = st.RefCovered
	return a.snapshot(), nil
}
