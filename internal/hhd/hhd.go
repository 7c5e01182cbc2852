// Package hhd implements the online hierarchical heavy hitter detector
// that the paper's related work builds on (Zhang et al., IMC 2004,
// cited as [11]): a *cash-register* streaming model in which counts
// only accumulate and are never deleted, so the detector reports
// **long-term** heavy hitters over the whole stream (or over coarse
// epochs).
//
// The paper positions its strawman STA as "a natural extension of HHD
// where we apply HHD for every timeunit" — HHD itself cannot see
// short-lived spikes because a burst of a few hundred calls drowns in
// weeks of cumulative history. The ablation experiment in package
// experiments quantifies exactly that blind spot, motivating the
// sliding-window design of §V.
package hhd

import (
	"fmt"
	"sort"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
	"tiresias/internal/shhh"
)

// Detector accumulates counts in the cash-register model and answers
// long-term SHHH queries against a *fraction-of-total* threshold phi,
// the classic formulation (a node is heavy when its discounted count
// is at least phi times the stream total).
type Detector struct {
	phi    float64
	tree   *hierarchy.Tree
	counts algo.DenseUnit // cumulative direct count per node ID
	total  float64
}

// New creates a Detector with threshold fraction phi in (0, 1) over
// the units of tree (the tree a collected stream's IDs name).
func New(phi float64, tree *hierarchy.Tree) (*Detector, error) {
	if phi <= 0 || phi >= 1 {
		return nil, fmt.Errorf("hhd: phi must be in (0,1), got %v", phi)
	}
	return &Detector{phi: phi, tree: tree}, nil
}

// Observe accumulates one timeunit of counts (insert-only).
func (d *Detector) Observe(u *algo.DenseUnit) {
	vals := u.Values()
	for i, id := range u.IDs() {
		if vals[i] < 0 {
			continue // cash-register model: no deletions
		}
		d.counts.Add(int(id), vals[i])
		d.total += vals[i]
	}
}

// HeavyHitter is one long-term SHHH member.
type HeavyHitter struct {
	// Key locates the node.
	Key hierarchy.Key
	// Weight is the discounted cumulative count.
	Weight float64
	// Fraction is Weight / stream total.
	Fraction float64
}

// Query returns the current long-term SHHH set (threshold phi x
// total), most significant first.
func (d *Detector) Query() []HeavyHitter {
	if d.total == 0 {
		return nil
	}
	r := shhh.ComputeInto(d.tree, d.counts.IDs(), d.counts.Values(), d.phi*d.total, nil)
	out := make([]HeavyHitter, 0, len(r.Set))
	for _, id := range r.Set {
		out = append(out, HeavyHitter{
			Key:      d.tree.Key(int(id)),
			Weight:   r.W[id],
			Fraction: r.W[id] / d.total,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Weight > out[j].Weight })
	return out
}
