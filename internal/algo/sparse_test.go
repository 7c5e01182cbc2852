package algo

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tiresias/internal/hierarchy"
)

// TestIDSetMatchesSortedReference checks idSet against a map on random
// operations, growing the capacity across every level boundary with
// members in place: the ascending walk and has for every value at each
// capacity, then popMax and the drain walk.
func TestIDSetMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s idSet
	ref := map[int32]bool{}
	sorted := func() []int32 {
		out := make([]int32, 0, len(ref))
		for v := range ref {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	check := func(n int) {
		t.Helper()
		got, want := s.appendTo(nil, false), sorted()
		if len(got) != len(want) {
			t.Fatalf("capacity %d: %d members, want %d", n, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("capacity %d: member %d is %d, want %d", n, i, got[i], want[i])
			}
		}
		for v := int32(0); v < int32(n); v++ {
			if s.has(v) != ref[v] {
				t.Fatalf("capacity %d: has(%d) = %v, want %v", n, v, s.has(v), ref[v])
			}
		}
	}
	if s.popMax() != -1 || len(s.appendTo(nil, true)) != 0 {
		t.Fatal("zero set is not empty")
	}
	for _, n := range []int{1, 64, 65, 4096, 4097, 300000} {
		s.grow(n)
		for op := 0; op < 400; op++ {
			v := int32(rng.Intn(n))
			if rng.Intn(3) > 0 {
				if absent := s.add(v); absent == ref[v] {
					t.Fatalf("add(%d) reported absent=%v", v, absent)
				}
				ref[v] = true
			} else {
				s.remove(v)
				delete(ref, v)
			}
		}
		check(n)
	}
	for want := sorted(); len(want) > len(ref)/2; want = want[:len(want)-1] {
		if got := s.popMax(); got != want[len(want)-1] {
			t.Fatalf("popMax = %d, want %d", got, want[len(want)-1])
		}
		delete(ref, want[len(want)-1])
	}
	check(0)
	if got := s.appendTo(nil, true); len(got) != len(ref) {
		t.Fatalf("drain returned %d members, want %d", len(got), len(ref))
	}
	if s.popMax() != -1 {
		t.Fatal("set not empty after drain")
	}
	// The drain walk that clears ADA's split marks empties the set at
	// every capacity step, and the set is usable after it.
	for _, n := range []int{1, 64, 65, 4096, 4097, 300000} {
		for op := 0; op < 200; op++ {
			v := int32(rng.Intn(n))
			s.add(v)
			ref[v] = true
		}
		check(n)
		if got := s.appendTo(nil, true); len(got) != len(ref) {
			t.Fatalf("capacity %d: drain listed %d members, want %d", n, len(got), len(ref))
		}
		clear(ref)
		check(n)
		if s.popMax() != -1 {
			t.Fatalf("capacity %d: set not empty after drain", n)
		}
	}
}

// wideTree interns tops×mids×leaves three-level paths and returns the
// leaf IDs.
func wideTree(tree *hierarchy.Tree, tops, mids, leaves int) []int {
	ids := make([]int, 0, tops*mids*leaves)
	for a := 0; a < tops; a++ {
		for b := 0; b < mids; b++ {
			for c := 0; c < leaves; c++ {
				ids = append(ids, tree.Intern([]string{fmt.Sprintf("t%d", a), fmt.Sprintf("m%d", b), fmt.Sprintf("l%d", c)}))
			}
		}
	}
	return ids
}

// BenchmarkADAStepGrowingTree times a step whose unit adds 8 new
// leaves (and touches 8 old ones) to a 5k- and a 50k-node tree: the
// cost of growth must follow the nodes added, not the tree's size, so
// the two sub-benchmarks should report about the same ns/op. Every
// 1024 steps the tree and engine are rebuilt off the clock, so a tree
// never grows by more than 8192 nodes.
func BenchmarkADAStepGrowingTree(b *testing.B) {
	const segment, perStep = 1024, 8
	for _, shape := range []struct {
		name               string
		tops, mids, leaves int
	}{{"nodes=5k", 5, 10, 100}, {"nodes=50k", 10, 50, 100}} {
		b.Run(shape.name, func(b *testing.B) {
			var paths [][]string
			for t := 0; t < shape.tops; t++ {
				for m := 0; m < shape.mids; m++ {
					for l := 0; l < shape.leaves; l++ {
						paths = append(paths, []string{fmt.Sprintf("t%d", t), fmt.Sprintf("m%d", m), fmt.Sprintf("l%d", l)})
					}
				}
			}
			leaves := make([]int, len(paths))
			grown := make([][]string, segment*perStep)
			for i := range grown {
				grown[i] = []string{fmt.Sprintf("t%d", i%shape.tops), fmt.Sprintf("m%d", i/perStep%shape.mids), fmt.Sprintf("g%d", i)}
			}
			var tree *hierarchy.Tree
			var ada *ADA
			var du DenseUnit
			fresh := func() {
				tree = hierarchy.New()
				for i, p := range paths {
					leaves[i] = tree.Intern(p)
				}
				var err error
				if ada, err = NewADA(Config{Theta: 10, WindowLen: 8, RefLevels: 2, Tree: tree}); err != nil {
					b.Fatal(err)
				}
				window := make([]*DenseUnit, 8)
				for i := range window {
					window[i] = &DenseUnit{}
					for j := 0; j < 64; j++ {
						window[i].Add(leaves[(i*64+j)%len(leaves)], 1)
					}
				}
				if _, err := ada.Init(window); err != nil {
					b.Fatal(err)
				}
			}
			fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step := i % segment
				if step == 0 && i > 0 {
					b.StopTimer()
					fresh()
					b.StartTimer()
				}
				du.Reset()
				for j := 0; j < perStep; j++ {
					du.Add(tree.Intern(grown[step*perStep+j]), 1)
					du.Add(leaves[(i*perStep+j)%len(leaves)], 1)
				}
				if _, err := ada.StepDense(&du); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestADAQuietStateHoldsNoSubnormals is the regression test for the
// stuck-denormal decay: after every leaf has carried traffic, thousands
// of units that touch only a few of them must leave no subnormal value
// anywhere in the engine's state. Before Flush, a quiet node's
// smoothed statistics decayed to 4.9e-324 and stayed there; a quiet
// model's own decay is pinned by forecast.TestQuietModelsFlushToZero.
func TestADAQuietStateHoldsNoSubnormals(t *testing.T) {
	tree := hierarchy.New()
	leaves := wideTree(tree, 4, 6, 12)
	ada, err := NewADA(Config{
		Theta:         10,
		WindowLen:     16,
		Rule:          EWMARule,
		RefLevels:     2,
		NewForecaster: HoltWintersFactory(0.4, 0.05, 0.3, 4),
		Tree:          tree,
	})
	if err != nil {
		t.Fatal(err)
	}
	var du DenseUnit
	window := make([]*DenseUnit, 16)
	for i := range window {
		du.Reset()
		for _, id := range leaves {
			du.Add(id, float64(1+(id+i)%5))
		}
		window[i] = du.Pairs()
	}
	if _, err := ada.Init(window); err != nil {
		t.Fatal(err)
	}
	for unit := 0; unit < 3200; unit++ {
		du.Reset()
		for _, id := range leaves[:3] {
			du.Add(id, float64(2+unit%4))
		}
		if _, err := ada.StepDense(&du); err != nil {
			t.Fatal(err)
		}
	}
	st, err := ada.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	const minNormal = 2.2250738585072014e-308
	check := func(where string, vals []float64) {
		t.Helper()
		for i, v := range vals {
			if v != 0 && v < minNormal && v > -minNormal {
				t.Fatalf("%s[%d] = %g is subnormal", where, i, v)
			}
		}
	}
	check("Weight", st.Weight)
	check("RawA", st.RawA)
	check("PrevA", st.PrevA)
	check("CumA", st.CumA)
	check("EwmaA", st.EwmaA)
	if len(st.Series) == 0 {
		t.Fatal("no series; the model check is vacuous")
	}
	for _, ss := range st.Series {
		check(fmt.Sprintf("series model of node %d", ss.ID), ss.Model.Floats)
	}
}

// TestADASparseStepAllocs pins the steady-state sparse step on a wide
// tree at zero allocations: 8 touched leaves of 12k.
func TestADASparseStepAllocs(t *testing.T) {
	tree := hierarchy.New()
	leaves := wideTree(tree, 6, 20, 100)
	if tree.Len() < 10000 {
		t.Fatalf("tree has %d nodes, want >= 10000", tree.Len())
	}
	ada, err := NewADA(Config{Theta: 10, WindowLen: 32, RefLevels: 2, Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := initUnits(ada, []tu{{}}); err != nil {
		t.Fatal(err)
	}
	var du DenseUnit
	next := 0
	fill := func() {
		du.Reset()
		du.Add(leaves[0], 12) // one stable heavy hitter
		for i := 0; i < 7; i++ {
			du.Add(leaves[1+next%(len(leaves)-1)], 1)
			next += 997
		}
	}
	for i := 0; i < 100; i++ {
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
		t.Fatalf("sparse StepDense on a %d-node tree allocates %.2f per op, want 0", tree.Len(), allocs)
	}
	if len(ada.HeavyHitterIDs()) == 0 {
		t.Fatal("no heavy hitters; the guard is vacuous")
	}
}
