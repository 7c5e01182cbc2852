package stream

import (
	"fmt"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
)

// WindowerState is a serializable snapshot of a Windower: the
// windowing position (current unit boundary and whether windowing has
// begun), the MaxGap bound, and the contents of the current partial
// timeunit. It exists so a checkpoint can resume mid-unit without
// losing already-ingested records.
type WindowerState struct {
	// Delta is the timeunit size Δ.
	Delta time.Duration
	// Start is the start of the current (incomplete) timeunit; zero
	// before the first record.
	Start time.Time
	// Began reports whether windowing is anchored (a record has been
	// observed or the windower was created with NewWindowerAt).
	Began bool
	// MaxGap is the configured gap bound (0 = unbounded).
	MaxGap int
	// CurIDs / CurVals hold the current partial unit's touched dense
	// node IDs and their counts (empty when the unit has no records).
	CurIDs  []int32
	CurVals []float64
}

// State snapshots the windower's position, gap bound and partial
// unit.
func (w *Windower) State() WindowerState {
	st := WindowerState{
		Delta:  w.delta,
		Start:  w.start,
		Began:  w.began,
		MaxGap: w.maxGap,
	}
	if w.dcur != nil {
		ids := w.dcur.IDs()
		st.CurIDs = append([]int32(nil), ids...)
		st.CurVals = make([]float64, len(ids))
		for i, id := range ids {
			st.CurVals[i] = w.dcur.ValueAt(int(id))
		}
	}
	return st
}

// RestoreWindower rebuilds a Windower from a captured state, binding
// it to t (the hierarchy the consuming engine operates on — node IDs
// in the state must have been interned into it).
func RestoreWindower(st WindowerState, t *hierarchy.Tree) (*Windower, error) {
	if t == nil {
		return nil, fmt.Errorf("stream: RestoreWindower needs a tree")
	}
	if len(st.CurIDs) != len(st.CurVals) {
		return nil, fmt.Errorf("stream: windower state has %d IDs, %d values", len(st.CurIDs), len(st.CurVals))
	}
	w, err := NewWindower(st.Delta)
	if err != nil {
		return nil, err
	}
	w.start = st.Start
	w.began = st.Began
	w.maxGap = st.MaxGap
	w.BindTree(t)
	if len(st.CurIDs) > 0 {
		cur := &algo.DenseUnit{}
		for i, id := range st.CurIDs {
			if id < 0 || int(id) >= t.Len() {
				return nil, fmt.Errorf("stream: windower state references node %d outside hierarchy of %d nodes", id, t.Len())
			}
			cur.Add(int(id), st.CurVals[i])
		}
		w.dcur = cur
	}
	return w, nil
}
