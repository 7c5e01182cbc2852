package hhd

import (
	"testing"

	"tiresias/internal/algo"
	"tiresias/internal/hierarchy"
)

func key(parts ...string) hierarchy.Key { return hierarchy.KeyOf(parts) }

// pc is one (category, direct count) pair of a test timeunit.
type pc struct {
	k hierarchy.Key
	v float64
}

// unit builds a timeunit over tree from pairs, interned in the order
// given.
func unit(tree *hierarchy.Tree, pairs ...pc) *algo.DenseUnit {
	u := &algo.DenseUnit{}
	for _, p := range pairs {
		u.Add(tree.Intern(p.k.Path()), p.v)
	}
	return u
}

func TestNewValidation(t *testing.T) {
	for _, phi := range []float64{0, 1, -0.5, 2} {
		if _, err := New(phi, hierarchy.New()); err == nil {
			t.Fatalf("phi=%v must be rejected", phi)
		}
	}
}

// covers reports whether the long-term set contains k or an ancestor
// of it: the coarse "is this region hot overall" question HHD answers.
func covers(d *Detector, k hierarchy.Key) bool {
	for _, hh := range d.Query() {
		if hh.Key.IsAncestorOf(k) {
			return true
		}
	}
	return false
}

func TestQueryEmpty(t *testing.T) {
	tree := hierarchy.New()
	d, err := New(0.1, tree)
	if err != nil {
		t.Fatal(err)
	}
	if d.Query() != nil {
		t.Fatal("empty detector must return nil")
	}
	if d.total != 0 {
		t.Fatal("empty total must be 0")
	}
}

func TestLongTermHeavyHitters(t *testing.T) {
	tree := hierarchy.New()
	d, err := New(0.3, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Accumulate: a/x dominates long-term.
	for i := 0; i < 10; i++ {
		d.Observe(unit(tree, pc{key("a", "x"), 8}, pc{key("a", "y"), 1}, pc{key("b", "z"), 1}))
	}
	if d.total != 100 {
		t.Fatalf("total = %v", d.total)
	}
	hhs := d.Query()
	if len(hhs) == 0 || hhs[0].Key != key("a", "x") {
		t.Fatalf("Query() = %+v, want a/x first", hhs)
	}
	if hhs[0].Fraction != 0.8 {
		t.Fatalf("fraction = %v, want 0.8", hhs[0].Fraction)
	}
	if !covers(d, key("a", "x")) {
		t.Fatal("a/x must be covered")
	}
	if covers(d, key("b", "z")) {
		t.Fatal("b/z (10%) must not be covered at phi=0.3")
	}
}

func TestDiscountingMatchesSHHH(t *testing.T) {
	tree := hierarchy.New()
	d, err := New(0.25, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Two heavy children under one parent: the parent's residual is
	// zero, so the parent must not be reported.
	d.Observe(unit(tree, pc{key("p", "a"), 50}, pc{key("p", "b"), 50}))
	hhs := d.Query()
	for _, hh := range hhs {
		if hh.Key == key("p") {
			t.Fatalf("discounted parent reported: %+v", hhs)
		}
	}
	if len(hhs) != 2 {
		t.Fatalf("Query() = %+v, want both children", hhs)
	}
}

func TestNegativeCountsIgnored(t *testing.T) {
	tree := hierarchy.New()
	d, err := New(0.1, tree)
	if err != nil {
		t.Fatal(err)
	}
	d.Observe(unit(tree, pc{key("a"), -5}, pc{key("b"), 10}))
	if d.total != 10 {
		t.Fatalf("cash-register model must ignore deletions, total = %v", d.total)
	}
}

// TestShortSpikeBlindSpot is the motivation for Tiresias' sliding
// window: a spike that dominates one timeunit vanishes inside the
// cumulative stream.
func TestShortSpikeBlindSpot(t *testing.T) {
	tree := hierarchy.New()
	d, err := New(0.2, tree)
	if err != nil {
		t.Fatal(err)
	}
	// Four weeks of steady background on other nodes.
	for i := 0; i < 1000; i++ {
		d.Observe(unit(tree, pc{key("bg", "x"), 5}, pc{key("bg", "y"), 5}))
	}
	// One timeunit with a severe localized outage: 100 calls at once.
	d.Observe(unit(tree, pc{key("victim", "co"), 100}))
	if covers(d, key("victim", "co")) {
		t.Fatal("cumulative HHD should not see a one-unit spike (if it does, the ablation premise is wrong)")
	}
}
