// Package shhh implements Definitions 1 and 2 of the paper: the
// Hierarchical Heavy Hitter (HHH) set and the Succinct Hierarchical
// Heavy Hitter (SHHH) set, together with the modified-weight
// computation that SHHH is defined over.
//
// This package is the *reference* (offline, single-timeunit)
// implementation: a plain bottom-up traversal that is provably correct
// by construction. The strawman STA engine uses it directly; the
// adaptive ADA engine (package algo) must agree with it — Lemma 1 of
// the paper, which the test suite checks as a property.
//
// A timeunit is given in ID form, the one form of the whole module: a
// slice of node IDs of a hierarchy.Tree and a slice of their direct
// counts (algo.DenseUnit's IDs and Values). In the paper's model only
// leaf categories receive direct counts, but interior nodes are
// accepted too (they behave like an implicit extra child).
package shhh

import (
	"tiresias/internal/hierarchy"
)

// Result is the outcome of an SHHH computation over one timeunit.
type Result struct {
	// Theta is the heavy-hitter threshold used.
	Theta float64
	// A holds the raw aggregated weight An per node ID: the node's
	// direct count plus the sum over all descendants (Definition 1).
	A []float64
	// W holds the modified weight Wn per node ID: the direct count
	// plus the sum of W over children that are not themselves SHHH
	// members (Definition 2).
	W []float64
	// InSet[id] reports whether the node is in the SHHH set.
	InSet []bool
	// Set lists the SHHH member IDs in bottom-up discovery order.
	Set []int32
}

// IsHH reports SHHH membership for a node ID.
func (r *Result) IsHH(id int) bool {
	return id < len(r.InSet) && r.InSet[id]
}

// ComputeInto derives the SHHH set for one timeunit by a bottom-up
// traversal (the paper notes this yields the unique fixed point of
// Definition 2). The timeunit is in ID form: vals[i] is the direct
// count of node ids[i]; IDs outside t are skipped. r's slices are
// reused as scratch (r may be nil, which allocates a fresh Result), so
// repeated calls with the same Result and a stable tree are
// allocation-free; the previous contents of r are overwritten.
//
//tiresias:hotpath
func ComputeInto(t *hierarchy.Tree, ids []int32, vals []float64, theta float64, r *Result) *Result {
	r = r.prepare(t.Len(), theta)
	for i, id := range ids {
		if int(id) < len(r.A) {
			r.A[id] += vals[i]
			r.W[id] += vals[i]
		}
	}
	return r.sweep(t)
}

// prepare returns r (a fresh Result when nil) with zeroed per-node
// scratch for n nodes, ready to be seeded with direct counts.
func (r *Result) prepare(n int, theta float64) *Result {
	if r == nil {
		r = &Result{}
	}
	r.Theta = theta
	r.A = growFloats(r.A, n)
	r.W = growFloats(r.W, n)
	r.InSet = growBools(r.InSet, n)
	r.Set = r.Set[:0]
	return r
}

// sweep completes a Result seeded with direct counts: one
// closure-free bottom-up pass over the tree's levels, deepest first.
//
//tiresias:hotpath
func (r *Result) sweep(t *hierarchy.Tree) *Result {
	for d := t.Height() - 1; d >= 0; d-- {
		for _, id := range t.Level(d) {
			aw, w := r.A[id], r.W[id]
			for c := t.FirstChild(int(id)); c >= 0; c = t.NextSibling(c) {
				aw += r.A[c]
				if !r.InSet[c] {
					w += r.W[c]
				}
			}
			r.A[id], r.W[id] = aw, w
			if w >= r.Theta {
				r.InSet[id] = true
				r.Set = append(r.Set, id)
			}
		}
	}
	return r
}

// growFloats returns a zeroed slice of length n, reusing s's backing
// array when possible.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// growBools returns a cleared slice of length n, reusing s's backing
// array when possible.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// AggregateInto computes the raw weight An for every node — direct
// count plus descendant counts — of an ID-form timeunit (vals[i] is the
// direct count of node ids[i]; IDs outside t are skipped), writing into
// dst and reusing its backing array when it is large enough.
//
//tiresias:hotpath
func AggregateInto(t *hierarchy.Tree, ids []int32, vals []float64, dst []float64) []float64 {
	return frozenSweep(t, seedIDs(t, ids, vals, dst), nil) //tiresias:ignore hotpath (inlined grow path: allocates only when the tree outgrows dst)
}

// FrozenWeightsInto computes, for a single ID-form timeunit, the
// modified weight of every node given a *frozen* SHHH membership (from
// some other timeunit), writing into dst and reusing its backing array
// when it is large enough. This realizes Definition 3: the time series
// of a heavy hitter at historical timeunit t is its weight after
// discounting the weights of descendants that are frozen members.
// inSet is indexed by node ID and may be shorter than the tree (new
// nodes default to not in the set). STA calls this once per retained
// timeunit per instance, so scratch reuse removes its dominant
// allocation source.
//
//tiresias:hotpath
func FrozenWeightsInto(t *hierarchy.Tree, ids []int32, vals []float64, inSet []bool, dst []float64) []float64 {
	return frozenSweep(t, seedIDs(t, ids, vals, dst), inSet) //tiresias:ignore hotpath (inlined grow path: allocates only when the tree outgrows dst)
}

// seedIDs returns dst zeroed over t's nodes and seeded with the direct
// counts of an ID-form timeunit.
func seedIDs(t *hierarchy.Tree, ids []int32, vals []float64, dst []float64) []float64 {
	w := growFloats(dst, t.Len())
	for i, id := range ids {
		if int(id) < len(w) {
			w[id] += vals[i]
		}
	}
	return w
}

// frozenSweep completes seeded direct counts bottom-up: each node adds
// its children's sums, except those of children in inSet (a nil inSet
// freezes nothing, which is plain aggregation).
//
//tiresias:hotpath
func frozenSweep(t *hierarchy.Tree, w []float64, inSet []bool) []float64 {
	for d := t.Height() - 1; d >= 0; d-- {
		for _, id := range t.Level(d) {
			sum := w[id]
			for c := t.FirstChild(int(id)); c >= 0; c = t.NextSibling(c) {
				if c >= len(inSet) || !inSet[c] {
					sum += w[c]
				}
			}
			w[id] = sum
		}
	}
	return w
}
