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

func TestComputePaperExample(t *testing.T) {
	// Root with two children; both children heavy. The root's
	// modified weight discounts both, so it drops out of the set.
	tr := buildTree([]string{"a"}, []string{"b"})
	counts := Counts{
		hierarchy.KeyOf([]string{"a"}): 10,
		hierarchy.KeyOf([]string{"b"}): 12,
	}
	r := Compute(tr, counts, 5)

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
	counts := Counts{}
	for _, p := range paths {
		counts[hierarchy.KeyOf(p)] = 2
	}
	r := Compute(tr, counts, 5)
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
	counts := Counts{
		hierarchy.KeyOf([]string{"x", "c", "g"}): 9, // heavy
		hierarchy.KeyOf([]string{"x", "c", "h"}): 1,
		hierarchy.KeyOf([]string{"x", "d"}):      1,
	}
	r := Compute(tr, counts, 5)

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
	counts := Counts{
		hierarchy.KeyOf([]string{"a"}): 3,
		hierarchy.KeyOf([]string{"b"}): 3,
	}
	r := Compute(tr, counts, 5)
	if !r.IsHH(hierarchy.Root) {
		t.Fatal("root aggregating two light children (6 >= 5) must be SHHH")
	}
	if len(r.Set) != 1 || r.Set[0] != hierarchy.Root {
		t.Fatalf("Set = %v, want just the root", r.Set)
	}
}

// randomCounts builds a random tree and random leaf counts.
func randomCounts(rng *rand.Rand) (*hierarchy.Tree, Counts) {
	tr := hierarchy.New()
	counts := Counts{}
	n := rng.Intn(40) + 1
	for i := 0; i < n; i++ {
		depth := rng.Intn(4) + 1
		path := make([]string, depth)
		for d := range path {
			path[d] = "n" + strconv.Itoa(rng.Intn(3))
		}
		tr.Intern(path)
		counts[hierarchy.KeyOf(path)] += float64(rng.Intn(8))
	}
	return tr, counts
}

// TestDefinitionTwoFixedPoint checks that the computed result
// satisfies the recursive Definition 2 exactly: membership iff W >=
// theta, and W of interior nodes equals direct count plus the sum of
// non-member children's W.
func TestDefinitionTwoFixedPoint(t *testing.T) {
	f := func(seed int64, thetaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		theta := float64(thetaRaw%20) + 1
		tr, counts := randomCounts(rng)
		r := Compute(tr, counts, theta)
		ok := true
		for n := 0; n < tr.Len(); n++ {
			want := counts[tr.Key(n)]
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
		tr, counts := randomCounts(rng)
		r := Compute(tr, counts, theta)
		var sum float64
		for _, n := range r.Set {
			sum += r.W[n]
		}
		if !r.InSet[hierarchy.Root] {
			sum += r.W[hierarchy.Root]
		}
		return math.Abs(sum-counts.Total()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestSHHHSubsetOfHHH: every SHHH member is also a plain HHH member,
// since W <= A everywhere.
func TestSHHHSubsetOfHHH(t *testing.T) {
	f := func(seed int64, thetaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		theta := float64(thetaRaw%20) + 1
		tr, counts := randomCounts(rng)
		r := Compute(tr, counts, theta)
		hhh := ComputeHHH(tr, counts, theta)
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
	counts := Counts{
		hierarchy.KeyOf([]string{"a", "b"}): 4,
		hierarchy.KeyOf([]string{"a", "c"}): 6,
		hierarchy.KeyOf([]string{"a"}):      1, // interior direct count allowed
	}
	a := Aggregate(tr, counts)
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
	counts := Counts{
		hierarchy.KeyOf([]string{"a", "b"}): 4,
		hierarchy.KeyOf([]string{"a", "c"}): 6,
	}
	frozen := make([]bool, tr.Len())
	frozen[b] = true // b is a frozen heavy hitter
	w := FrozenWeights(tr, counts, frozen)
	nA := tr.Lookup(hierarchy.KeyOf([]string{"a"}))
	if w[nA] != 6 {
		t.Fatalf("frozen W(a) = %v, want 6 (b discounted)", w[nA])
	}
	if w[b] != 4 {
		t.Fatalf("frozen W(b) = %v, want 4", w[b])
	}
	// Shorter inSet slice than the tree must behave as "not frozen".
	w2 := FrozenWeights(tr, counts, nil)
	if w2[hierarchy.Root] != 10 {
		t.Fatalf("frozen W(root) with nil set = %v, want 10", w2[hierarchy.Root])
	}
}

func TestCountsTotal(t *testing.T) {
	c := Counts{
		hierarchy.KeyOf([]string{"a"}): 1.5,
		hierarchy.KeyOf([]string{"b"}): 2.5,
	}
	if got := c.Total(); got != 4 {
		t.Fatalf("Total() = %v, want 4", got)
	}
}
