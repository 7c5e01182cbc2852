package algo

import "slices"

// DenseUnit is a timeunit: direct category counts keyed by the dense
// node ID of a hierarchy.Tree. It is the one timeunit representation
// of the module — the windower fills one directly from interned record
// paths, the engines read it back with O(1) per-ID lookups, and the
// reference code (STA, package shhh, the experiment harnesses) reads
// its IDs and Values — so ingestion never joins or splits path strings
// and never walks a map.
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
		u.growPos(id + 1) //tiresias:ignore hotpath (inlined grow path: allocates only when the ID space outgrows the index)
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

// Values returns the counts aligned with IDs, shared like IDs.
func (u *DenseUnit) Values() []float64 { return u.vals }

// Pairs returns a copy of the unit's touched (ID, count) pairs in
// ascending ID order. The copy has no sparse index, so it costs
// O(touched) however wide the tree is: it is for a unit that outlives
// its pooled original but is only read through IDs, Values, Total,
// MaxID and Pairs (a warm-up window awaiting Init, STA's retained
// window, a collected stream); Add and ValueAt need the index. A unit
// whose IDs already ascend — a Pairs copy among them — is copied as is.
func (u *DenseUnit) Pairs() *DenseUnit {
	p := &DenseUnit{ids: slices.Clone(u.ids), vals: slices.Clone(u.vals)}
	if !slices.IsSorted(p.ids) {
		slices.Sort(p.ids)
		for i, id := range p.ids {
			p.vals[i] = u.ValueAt(int(id))
		}
	}
	return p
}

// PairsOf wraps (ID, count) pairs — distinct IDs, as Pairs returns
// them — as an index-free unit, without copying.
func PairsOf(ids []int32, vals []float64) *DenseUnit {
	return &DenseUnit{ids: ids, vals: vals}
}

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
