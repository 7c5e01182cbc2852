package algo

import (
	"tiresias/internal/hierarchy"
)

// DenseUnit is the flat, ID-addressed form of a Timeunit: direct
// category counts keyed by dense node ID instead of string Key. It is
// the internal timeunit representation of the hot path — the windower
// fills one directly from interned record paths, and the engines read
// it back with O(1) per-ID lookups — so steady-state ingestion never
// joins or splits path strings and never walks a map.
//
// A DenseUnit records the touched IDs in insertion order next to their
// accumulated values, plus a sparse position index for accumulation;
// Reset clears only the touched entries, so reuse across timeunits
// costs O(touched), not O(|tree|). The zero value is ready to use.
type DenseUnit struct {
	ids  []int32
	vals []float64 // vals[i] is the count of ids[i]
	pos  []int32   // pos[id] = index+1 into ids/vals; 0 = absent
}

// Add accumulates v onto the node with the given dense ID.
//
//tiresias:hotpath
func (u *DenseUnit) Add(id int, v float64) {
	if id >= len(u.pos) {
		u.growPos(id + 1) //tiresias:ignore escapecheck (inlined grow path: allocates only when the ID space outgrows the index)
	}
	if p := u.pos[id]; p != 0 {
		u.vals[p-1] += v
		return
	}
	u.ids = append(u.ids, int32(id))
	u.vals = append(u.vals, v)
	u.pos[id] = int32(len(u.ids))
}

// growPos extends the sparse index to cover at least n IDs.
func (u *DenseUnit) growPos(n int) {
	if cap(u.pos) >= n {
		u.pos = u.pos[:n]
		return
	}
	grown := make([]int32, n, n+n/2+8)
	copy(grown, u.pos)
	u.pos = grown
}

// ValueAt returns the direct count of the node, 0 when untouched.
//
//tiresias:hotpath
func (u *DenseUnit) ValueAt(id int) float64 {
	if id >= len(u.pos) {
		return 0
	}
	if p := u.pos[id]; p != 0 {
		return u.vals[p-1]
	}
	return 0
}

// Len returns the number of distinct touched IDs.
func (u *DenseUnit) Len() int { return len(u.ids) }

// Total returns the sum of all direct counts.
func (u *DenseUnit) Total() float64 {
	var s float64
	for _, v := range u.vals {
		s += v
	}
	return s
}

// IDs returns the touched IDs in insertion order. The slice is shared
// with the unit; callers must not mutate or retain it past Reset.
func (u *DenseUnit) IDs() []int32 { return u.ids }

// Reset empties the unit for reuse, clearing only the touched entries
// of the sparse index.
func (u *DenseUnit) Reset() {
	for _, id := range u.ids {
		u.pos[id] = 0
	}
	u.ids = u.ids[:0]
	u.vals = u.vals[:0]
}

// MaxID returns the largest touched ID, or -1 for an empty unit.
func (u *DenseUnit) MaxID() int {
	max := -1
	for _, id := range u.ids {
		if int(id) > max {
			max = int(id)
		}
	}
	return max
}

// Timeunit converts the unit to its map form, resolving IDs through
// the tree that interned them. Used when dense units cross into the
// map-based (warmup / compatibility) paths.
func (u *DenseUnit) Timeunit(t *hierarchy.Tree) Timeunit {
	out := make(Timeunit, len(u.ids))
	for i, id := range u.ids {
		out[t.Node(int(id)).Key] += u.vals[i]
	}
	return out
}

// AddTimeunit accumulates a map-form timeunit into the dense unit,
// interning unseen keys into the tree. It is the bridge from map-form
// timeunits to the engines' dense step.
func (u *DenseUnit) AddTimeunit(t *hierarchy.Tree, counts Timeunit) {
	for k, v := range counts {
		u.Add(t.InsertKey(k).ID, v)
	}
}

// StepTimeunit advances e one instance with a map-form timeunit, whose
// keys are interned into e's tree through a fresh DenseUnit. It serves
// harnesses that build timeunits as maps (experiments, tests); the
// streaming front end fills a reused DenseUnit and calls StepDense.
func StepTimeunit(e Engine, u Timeunit) (*StepState, error) {
	var du DenseUnit
	du.AddTimeunit(e.Tree(), u)
	return e.StepDense(&du)
}
