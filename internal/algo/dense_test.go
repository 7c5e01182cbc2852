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

func TestDenseUnitPairs(t *testing.T) {
	var u DenseUnit
	u.Add(7, 1)
	u.Add(3, 2)
	u.Add(5, 4)
	u.Add(3, 0.5)
	p := u.Pairs()
	u.Reset()
	if fmt.Sprint(p.IDs(), p.Values()) != "[3 5 7] [2.5 4 1]" || p.Total() != 7.5 {
		t.Fatalf("Pairs = %v %v (total %v), want ascending IDs [3 5 7] with [2.5 4 1]", p.IDs(), p.Values(), p.Total())
	}
	if q := PairsOf(p.IDs(), p.Values()); q.Len() != 3 || q.MaxID() != 7 {
		t.Fatalf("PairsOf Len/MaxID = %d/%d, want 3/7", q.Len(), q.MaxID())
	}
	// A copy of a copy, which has no index, keeps its counts.
	if q := p.Pairs(); fmt.Sprint(q.IDs(), q.Values()) != "[3 5 7] [2.5 4 1]" {
		t.Fatalf("Pairs of Pairs = %v %v, want [3 5 7] [2.5 4 1]", q.IDs(), q.Values())
	}
}

// denseFromRandom fills u with a random timeunit over a fixed leaf
// universe, interned into the shared tree.
func denseFromRandom(rng *rand.Rand, tree *hierarchy.Tree, u *DenseUnit) {
	for i := 0; i < 1+rng.Intn(12); i++ {
		path := []string{
			fmt.Sprintf("g%d", rng.Intn(3)),
			fmt.Sprintf("m%d", rng.Intn(4)),
			fmt.Sprintf("l%d", rng.Intn(5)),
		}
		u.Add(tree.Intern(path), float64(1+rng.Intn(9)))
	}
}

// TestADADenseLemma1Agreement is the Lemma-1 check on the dense path:
// after every StepDense, ADA's SHHH membership and newest modified
// weights must agree exactly with the reference shhh.ComputeInto over
// the same counts.
func TestADADenseLemma1Agreement(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tree := hierarchy.New()
	ada, err := NewADA(Config{Theta: 6, WindowLen: 16, RefLevels: 2, Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := initUnits(ada, []tu{{}}); err != nil {
		t.Fatal(err)
	}
	var du DenseUnit
	for step := 0; step < 300; step++ {
		du.Reset()
		denseFromRandom(rng, tree, &du)
		st, err := ada.StepDense(&du)
		if err != nil {
			t.Fatal(err)
		}
		ref := shhh.ComputeInto(tree, du.IDs(), du.Values(), 6, nil)
		if len(st.HeavyHitters) != len(ref.Set) {
			t.Fatalf("step %d: |SHHH| = %d, reference %d", step, len(st.HeavyHitters), len(ref.Set))
		}
		for _, hh := range st.HeavyHitters {
			if !ref.IsHH(hh.ID) {
				t.Fatalf("step %d: %v in ADA set but not reference", step, hh.Key)
			}
			if want := ref.W[hh.ID]; hh.Actual != want {
				t.Fatalf("step %d: %v weight %v, reference %v (must be bit-identical)",
					step, hh.Key, hh.Actual, want)
			}
		}
	}
}

// TestADAStepDenseSteadyStateAllocs pins the step without membership
// changes at zero allocations: every touched node stays individually
// heavy, so no unit splits or merges. TestADASplitMergeCycleAllocatesNothing
// covers the steps that do.
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
	if _, err := initUnits(ada, []tu{{}}); err != nil {
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
	if got := len(ada.HeavyHitterIDs()); got == 0 {
		t.Fatal("steady state has no heavy hitters; guard is vacuous")
	}
}

// TestADASplitMergeCycleAllocatesNothing pins SPLIT and MERGE at zero
// allocations once the engine's holder pool has warmed up: a burst on
// one leaf splits the root's series down to it, through two levels
// with reference series, and the next, quiet unit merges it back. Every
// scaled copy, refit, fresh series and reference repair of that cycle
// must reuse a recycled holder's model and multi-scale state in place,
// for every factory and with and without coarse timescales.
func TestADASplitMergeCycleAllocatesNothing(t *testing.T) {
	factories := []struct {
		name string
		f    ForecasterFactory
	}{
		{"ewma", EWMAFactory(0.5)},
		{"holt-winters", HoltWintersFactory(0.4, 0.05, 0.3, 4)},
		{"dual-season", DualSeasonFactory(0.4, 0.05, 0.3, 0.6, 2, 4)},
	}
	for _, fc := range factories {
		for _, eta := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/eta%d", fc.name, eta), func(t *testing.T) {
				tree := hierarchy.New()
				leaves := wideTree(tree, 3, 3, 4)
				ada, err := NewADA(Config{
					Theta: 10, WindowLen: 16, RefLevels: 2, NewForecaster: fc.f,
					Lambda: 2, Eta: eta, Tree: tree,
				})
				if err != nil {
					t.Fatal(err)
				}
				var du DenseUnit
				quiet := func() {
					du.Reset()
					for i := 0; i < 6; i++ {
						du.Add(leaves[5*i+1], 2) // the root is heavy, nothing below it
					}
				}
				window := make([]*DenseUnit, 16)
				for i := range window {
					quiet()
					window[i] = du.Pairs()
				}
				if _, err := ada.Init(window); err != nil {
					t.Fatal(err)
				}
				splits := 0
				cycle := func() {
					quiet()
					du.Add(leaves[0], 25)
					st, err := ada.StepDense(&du)
					if err != nil {
						t.Fatal(err)
					}
					for _, hh := range st.HeavyHitters {
						if hh.ID == leaves[0] {
							splits++
						}
					}
					quiet()
					if _, err := ada.StepDense(&du); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 40; i++ {
					cycle()
				}
				allocs := testing.AllocsPerRun(100, cycle)
				if allocs != 0 {
					t.Fatalf("a split/merge cycle allocates %.2f per op, want 0", allocs)
				}
				if splits == 0 || len(ada.HeavyHitterIDs()) != 1 {
					t.Fatalf("burst reached the leaf %d times, %d members after the merge; the guard is vacuous",
						splits, len(ada.HeavyHitterIDs()))
				}
			})
		}
	}
}
