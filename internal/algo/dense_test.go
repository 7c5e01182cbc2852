package algo

import (
	"fmt"
	"math/rand"
	"testing"

	"tiresias/internal/hierarchy"
	"tiresias/internal/shhh"
)

func TestDenseUnitAccumulateReset(t *testing.T) {
	var u DenseUnit
	u.Add(3, 2)
	u.Add(7, 1)
	u.Add(3, 0.5)
	if got := u.ValueAt(3); got != 2.5 {
		t.Fatalf("ValueAt(3) = %v, want 2.5", got)
	}
	if got := u.ValueAt(7); got != 1 {
		t.Fatalf("ValueAt(7) = %v, want 1", got)
	}
	if got := u.ValueAt(5); got != 0 {
		t.Fatalf("ValueAt(5) = %v, want 0", got)
	}
	if u.Len() != 2 || u.Total() != 3.5 || u.MaxID() != 7 {
		t.Fatalf("Len/Total/MaxID = %d/%v/%d", u.Len(), u.Total(), u.MaxID())
	}
	u.Reset()
	if u.Len() != 0 || u.Total() != 0 || u.ValueAt(3) != 0 || u.MaxID() != -1 {
		t.Fatal("Reset did not clear the unit")
	}
	// Reuse after Reset must accumulate from scratch.
	u.Add(3, 4)
	if got := u.ValueAt(3); got != 4 {
		t.Fatalf("ValueAt(3) after reuse = %v, want 4", got)
	}
}

func TestDenseUnitTimeunitRoundTrip(t *testing.T) {
	tree := hierarchy.New()
	src := Timeunit{
		key("a", "x"): 3,
		key("a", "y"): 1,
		key("b"):      2,
	}
	var u DenseUnit
	u.AddTimeunit(tree, src)
	back := u.Timeunit(tree)
	if len(back) != len(src) {
		t.Fatalf("round trip has %d keys, want %d", len(back), len(src))
	}
	for k, v := range src {
		if back[k] != v {
			t.Fatalf("round trip %q = %v, want %v", k, back[k], v)
		}
	}
}

// denseFromRandom draws a random timeunit over a fixed leaf universe,
// filling both forms against the shared tree.
func denseFromRandom(rng *rand.Rand, tree *hierarchy.Tree, u *DenseUnit) Timeunit {
	m := Timeunit{}
	for i := 0; i < 1+rng.Intn(12); i++ {
		path := []string{
			fmt.Sprintf("g%d", rng.Intn(3)),
			fmt.Sprintf("m%d", rng.Intn(4)),
			fmt.Sprintf("l%d", rng.Intn(5)),
		}
		v := float64(1 + rng.Intn(9))
		m[hierarchy.KeyOf(path)] += v
		u.Add(tree.Intern(path), v)
	}
	return m
}

// TestADADenseLemma1Agreement is the Lemma-1 check on the dense path:
// after every StepDense, ADA's SHHH membership and newest modified
// weights must agree exactly with the reference shhh.Compute over the
// same counts.
func TestADADenseLemma1Agreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tree := hierarchy.New()
	ada, err := NewADA(Config{Theta: 6, WindowLen: 16, RefLevels: 2, Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ada.Init([]Timeunit{{}}); err != nil {
		t.Fatal(err)
	}
	var du DenseUnit
	for step := 0; step < 300; step++ {
		du.Reset()
		m := denseFromRandom(rng, tree, &du)
		st, err := ada.StepDense(&du)
		if err != nil {
			t.Fatal(err)
		}
		ref := shhh.Compute(tree, m, 6)
		if len(st.HeavyHitters) != len(ref.Set) {
			t.Fatalf("step %d: |SHHH| = %d, reference %d", step, len(st.HeavyHitters), len(ref.Set))
		}
		for _, hh := range st.HeavyHitters {
			if !ref.IsHH(hh.Node) {
				t.Fatalf("step %d: %v in ADA set but not reference", step, hh.Node)
			}
			if want := ref.W[hh.Node.ID]; hh.Actual != want {
				t.Fatalf("step %d: %v weight %v, reference %v (must be bit-identical)",
					step, hh.Node, hh.Actual, want)
			}
		}
	}
}

// TestADADenseMatchesMapStep feeds the identical unit stream through
// StepDense and through the map-form StepTimeunit on two engines with
// the same configuration, asserting bit-identical heavy hitters, actuals, and
// forecasts — the dense path is a representation change, not an
// algorithm change.
func TestADADenseMatchesMapStep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Theta: 5, WindowLen: 12, RefLevels: 2, Rule: LongTermHistory}
	mapEng, err := NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	denseTree := hierarchy.New()
	cfgDense := cfg
	cfgDense.Tree = denseTree
	denseEng, err := NewADA(cfgDense)
	if err != nil {
		t.Fatal(err)
	}
	// Intern the full category universe into both trees in the same
	// deterministic order, so node IDs — and with them every
	// traversal and summation order — coincide and results can be
	// compared bit for bit.
	for p := 0; p < 3; p++ {
		for c := 0; c < 4; c++ {
			path := []string{fmt.Sprintf("p%d", p), fmt.Sprintf("c%d", c)}
			mapEng.Tree().Insert(path)
			denseTree.Intern(path)
		}
	}
	warm := []Timeunit{{key("a"): 8}, {key("a"): 7, key("b"): 2}}
	if _, err := mapEng.Init(warm); err != nil {
		t.Fatal(err)
	}
	if _, err := denseEng.Init(warm); err != nil {
		t.Fatal(err)
	}
	var du DenseUnit
	for step := 0; step < 200; step++ {
		du.Reset()
		m := Timeunit{}
		for i := 0; i < 1+rng.Intn(8); i++ {
			path := []string{fmt.Sprintf("p%d", rng.Intn(3)), fmt.Sprintf("c%d", rng.Intn(4))}
			v := float64(1 + rng.Intn(7))
			m[hierarchy.KeyOf(path)] += v
		}
		du.AddTimeunit(denseTree, m)
		stM, err := StepTimeunit(mapEng, m)
		if err != nil {
			t.Fatal(err)
		}
		stD, err := denseEng.StepDense(&du)
		if err != nil {
			t.Fatal(err)
		}
		if len(stM.HeavyHitters) != len(stD.HeavyHitters) {
			t.Fatalf("step %d: |SHHH| map %d vs dense %d", step, len(stM.HeavyHitters), len(stD.HeavyHitters))
		}
		for i := range stM.HeavyHitters {
			hm, hd := stM.HeavyHitters[i], stD.HeavyHitters[i]
			if hm.Node.Key != hd.Node.Key {
				t.Fatalf("step %d: member %d is %v vs %v", step, i, hm.Node, hd.Node)
			}
			if hm.Actual != hd.Actual || hm.Forecast != hd.Forecast {
				t.Fatalf("step %d: %v map (%v, %v) vs dense (%v, %v)",
					step, hm.Node, hm.Actual, hm.Forecast, hd.Actual, hd.Forecast)
			}
		}
	}
}

// TestADAStepDenseSteadyStateAllocs is the allocation guard of the
// tentpole: once membership has stabilized, a StepDense performs zero
// allocations.
func TestADAStepDenseSteadyStateAllocs(t *testing.T) {
	tree := hierarchy.New()
	ada, err := NewADA(Config{Theta: 4, WindowLen: 32, RefLevels: 2, Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	var du DenseUnit
	paths := [][]string{
		{"net", "vho1", "io1"},
		{"net", "vho1", "io2"},
		{"net", "vho2", "io1"},
		{"ccd", "billing"},
	}
	ids := make([]int, len(paths))
	for i, p := range paths {
		ids[i] = tree.Intern(p)
	}
	fill := func() {
		du.Reset()
		for _, id := range ids {
			du.Add(id, 6) // every touched node individually heavy: stable membership
		}
	}
	if _, err := ada.Init([]Timeunit{{}}); err != nil {
		t.Fatal(err)
	}
	// Let membership, pools, and scratch capacities settle.
	for i := 0; i < 50; i++ {
		fill()
		if _, err := ada.StepDense(&du); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		fill()
		if _, err := ada.StepDense(&du); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state StepDense allocates %.2f per op, want 0", allocs)
	}
	// Sanity: the engine is actually tracking the heavy hitters.
	if got := len(ada.HeavyHitterNodes()); got == 0 {
		t.Fatal("steady state has no heavy hitters; guard is vacuous")
	}
}
