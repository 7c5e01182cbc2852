package shhh

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"

	"tiresias/internal/hierarchy"
)

// buildTree inserts the given leaf paths and returns the tree.
func buildTree(paths ...[]string) *hierarchy.Tree {
	t := hierarchy.New()
	for _, p := range paths {
		t.Intern(p)
	}
	return t
}

// pc is one (path, direct count) pair of a test timeunit.
type pc struct {
	path []string
	v    float64
}

// unit is a test timeunit in ID form: its pairs interned into tr in
// the order given.
func unit(tr *hierarchy.Tree, pairs ...pc) (ids []int32, vals []float64) {
	for _, p := range pairs {
		ids = append(ids, int32(tr.Intern(p.path)))
		vals = append(vals, p.v)
	}
	return ids, vals
}

func TestComputePaperExample(t *testing.T) {
	// Root with two children; both children heavy. The root's
	// modified weight discounts both, so it drops out of the set.
	tr := buildTree([]string{"a"}, []string{"b"})
	ids, vals := unit(tr, pc{[]string{"a"}, 10}, pc{[]string{"b"}, 12})
	r := ComputeInto(tr, ids, vals, 5, nil)

	a := tr.Lookup(hierarchy.KeyOf([]string{"a"}))
	b := tr.Lookup(hierarchy.KeyOf([]string{"b"}))
	if !r.IsHH(a) || !r.IsHH(b) {
		t.Fatal("both heavy children must be SHHH")
	}
	if r.IsHH(hierarchy.Root) {
		t.Fatal("root must be discounted to zero and excluded")
	}
	if r.W[hierarchy.Root] != 0 {
		t.Fatalf("root W = %v, want 0", r.W[hierarchy.Root])
	}
	if r.A[hierarchy.Root] != 22 {
		t.Fatalf("root A = %v, want 22", r.A[hierarchy.Root])
	}
}

func TestComputeLightChildrenAggregateUp(t *testing.T) {
	// Many light leaves under one parent: none is heavy alone but the
	// parent aggregates them and becomes heavy.
	paths := make([][]string, 6)
	for i := range paths {
		paths[i] = []string{"p", "leaf" + strconv.Itoa(i)}
	}
	tr := buildTree(paths...)
	var pairs []pc
	for _, p := range paths {
		pairs = append(pairs, pc{p, 2})
	}
	ids, vals := unit(tr, pairs...)
	r := ComputeInto(tr, ids, vals, 5, nil)
	p := tr.Lookup(hierarchy.KeyOf([]string{"p"}))
	if !r.IsHH(p) {
		t.Fatal("parent aggregating 12 must be SHHH at theta=5")
	}
	if r.W[p] != 12 {
		t.Fatalf("parent W = %v, want 12", r.W[p])
	}
	for _, pth := range paths {
		n := tr.Lookup(hierarchy.KeyOf(pth))
		if r.IsHH(n) {
			t.Fatalf("light leaf %v must not be SHHH", pth)
		}
	}
}

func TestComputeMixedDepths(t *testing.T) {
	// One heavy grandchild under a light child: the grandchild's
	// weight must be discounted transitively from the grandparent.
	tr := buildTree(
		[]string{"x", "c", "g"},
		[]string{"x", "c", "h"},
		[]string{"x", "d"},
	)
	ids, vals := unit(tr,
		pc{[]string{"x", "c", "g"}, 9}, // heavy
		pc{[]string{"x", "c", "h"}, 1},
		pc{[]string{"x", "d"}, 1},
	)
	r := ComputeInto(tr, ids, vals, 5, nil)

	g := tr.Lookup(hierarchy.KeyOf([]string{"x", "c", "g"}))
	c := tr.Lookup(hierarchy.KeyOf([]string{"x", "c"}))
	x := tr.Lookup(hierarchy.KeyOf([]string{"x"}))
	if !r.IsHH(g) {
		t.Fatal("g must be SHHH")
	}
	if r.IsHH(c) {
		t.Fatalf("c W=%v must not be SHHH (only the light sibling remains)", r.W[c])
	}
	if r.W[c] != 1 {
		t.Fatalf("c W = %v, want 1", r.W[c])
	}
	// x sees W(c)=1 + W(d)=1 = 2 < 5: not heavy.
	if r.IsHH(x) {
		t.Fatalf("x W=%v must not be SHHH", r.W[x])
	}
	if r.W[x] != 2 {
		t.Fatalf("x W = %v, want 2", r.W[x])
	}
}

func TestComputeRootMembership(t *testing.T) {
	tr := buildTree([]string{"a"}, []string{"b"})
	ids, vals := unit(tr, pc{[]string{"a"}, 3}, pc{[]string{"b"}, 3})
	r := ComputeInto(tr, ids, vals, 5, nil)
	if !r.IsHH(hierarchy.Root) {
		t.Fatal("root aggregating two light children (6 >= 5) must be SHHH")
	}
	if len(r.Set) != 1 || r.Set[0] != hierarchy.Root {
		t.Fatalf("Set = %v, want just the root", r.Set)
	}
}

// randomCounts builds a random tree and random counts in ID form; a
// node may appear more than once, its counts adding up.
func randomCounts(rng *rand.Rand) (*hierarchy.Tree, []int32, []float64) {
	tr := hierarchy.New()
	var pairs []pc
	n := rng.Intn(40) + 1
	for i := 0; i < n; i++ {
		depth := rng.Intn(4) + 1
		path := make([]string, depth)
		for d := range path {
			path[d] = "n" + strconv.Itoa(rng.Intn(3))
		}
		pairs = append(pairs, pc{path, float64(rng.Intn(8))})
	}
	ids, vals := unit(tr, pairs...)
	return tr, ids, vals
}

// TestDefinitionTwoFixedPoint checks that the computed result
// satisfies the recursive Definition 2 exactly: membership iff W >=
// theta, and W of interior nodes equals direct count plus the sum of
// non-member children's W.
func TestDefinitionTwoFixedPoint(t *testing.T) {
	f := func(seed int64, thetaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		theta := float64(thetaRaw%20) + 1
		tr, ids, vals := randomCounts(rng)
		r := ComputeInto(tr, ids, vals, theta, nil)
		direct := make([]float64, tr.Len())
		for i, id := range ids {
			direct[id] += vals[i]
		}
		ok := true
		for n := 0; n < tr.Len(); n++ {
			want := direct[n]
			for c := tr.FirstChild(n); c >= 0; c = tr.NextSibling(c) {
				if !r.InSet[c] {
					want += r.W[c]
				}
			}
			if math.Abs(want-r.W[n]) > 1e-9 {
				ok = false
			}
			if r.InSet[n] != (r.W[n] >= theta) {
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestMassConservation: total direct count equals the sum of the
// modified weights of SHHH members plus the root's residual modified
// weight (when the root is not a member). Every unit of data is
// charged to exactly one "series owner".
func TestMassConservation(t *testing.T) {
	f := func(seed int64, thetaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		theta := float64(thetaRaw%20) + 1
		tr, ids, vals := randomCounts(rng)
		r := ComputeInto(tr, ids, vals, theta, nil)
		var sum float64
		for _, n := range r.Set {
			sum += r.W[n]
		}
		if !r.InSet[hierarchy.Root] {
			sum += r.W[hierarchy.Root]
		}
		var total float64
		for _, v := range vals {
			total += v
		}
		return math.Abs(sum-total) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// computeHHH derives the plain (non-succinct) HHH set of Definition 1
// for an ID-form timeunit: the IDs of all nodes whose raw aggregated
// weight is at least theta, deepest level first. It is
// the oracle TestSHHHSubsetOfHHH holds ComputeInto to.
func computeHHH(t *hierarchy.Tree, ids []int32, vals []float64, theta float64) []int32 {
	agg := AggregateInto(t, ids, vals, nil)
	var set []int32
	for d := t.Height() - 1; d >= 0; d-- {
		for _, id := range t.Level(d) {
			if agg[id] >= theta {
				set = append(set, id)
			}
		}
	}
	return set
}

// TestSHHHSubsetOfHHH: every SHHH member is also a plain HHH member,
// since W <= A everywhere.
func TestSHHHSubsetOfHHH(t *testing.T) {
	f := func(seed int64, thetaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		theta := float64(thetaRaw%20) + 1
		tr, ids, vals := randomCounts(rng)
		r := ComputeInto(tr, ids, vals, theta, nil)
		hhh := computeHHH(tr, ids, vals, theta)
		inHHH := make(map[int32]bool, len(hhh))
		for _, n := range hhh {
			inHHH[n] = true
		}
		for _, n := range r.Set {
			if !inHHH[n] {
				return false
			}
		}
		// And W <= A pointwise.
		for id := range r.W {
			if r.W[id] > r.A[id]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregateMatchesManualSum(t *testing.T) {
	tr := buildTree([]string{"a", "b"}, []string{"a", "c"})
	ids, vals := unit(tr,
		pc{[]string{"a", "b"}, 4},
		pc{[]string{"a", "c"}, 6},
		pc{[]string{"a"}, 1}, // interior direct count allowed
	)
	a := AggregateInto(tr, ids, vals, nil)
	nA := tr.Lookup(hierarchy.KeyOf([]string{"a"}))
	if a[nA] != 11 {
		t.Fatalf("A(a) = %v, want 11", a[nA])
	}
	if a[hierarchy.Root] != 11 {
		t.Fatalf("A(root) = %v, want 11", a[hierarchy.Root])
	}
}

func TestFrozenWeights(t *testing.T) {
	tr := buildTree([]string{"a", "b"}, []string{"a", "c"})
	b := tr.Lookup(hierarchy.KeyOf([]string{"a", "b"}))
	ids, vals := unit(tr, pc{[]string{"a", "b"}, 4}, pc{[]string{"a", "c"}, 6})
	frozen := make([]bool, tr.Len())
	frozen[b] = true // b is a frozen heavy hitter
	w := FrozenWeightsInto(tr, ids, vals, frozen, nil)
	nA := tr.Lookup(hierarchy.KeyOf([]string{"a"}))
	if w[nA] != 6 {
		t.Fatalf("frozen W(a) = %v, want 6 (b discounted)", w[nA])
	}
	if w[b] != 4 {
		t.Fatalf("frozen W(b) = %v, want 4", w[b])
	}
	// Shorter inSet slice than the tree must behave as "not frozen".
	w2 := FrozenWeightsInto(tr, ids, vals, nil, nil)
	if w2[hierarchy.Root] != 10 {
		t.Fatalf("frozen W(root) with nil set = %v, want 10", w2[hierarchy.Root])
	}
}
