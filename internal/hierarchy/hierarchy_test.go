package hierarchy

import (
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

func TestKeyRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		path []string
	}{
		{name: "root", path: nil},
		{name: "single", path: []string{"TV"}},
		{name: "deep", path: []string{"Trouble", "TV", "No Service", "No Pic", "Dispatch"}},
		{name: "slashes in labels", path: []string{"a/b", "c/d"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := KeyOf(tt.path)
			got := k.Path()
			if len(got) != len(tt.path) {
				t.Fatalf("Path() = %q, want %q", got, tt.path)
			}
			for i := range got {
				if got[i] != tt.path[i] {
					t.Fatalf("Path()[%d] = %q, want %q", i, got[i], tt.path[i])
				}
			}
			if k.Depth() != len(tt.path) {
				t.Fatalf("Depth() = %d, want %d", k.Depth(), len(tt.path))
			}
		})
	}
}

func TestKeyParent(t *testing.T) {
	k := KeyOf([]string{"a", "b", "c"})
	p, ok := k.Parent()
	if !ok || p != KeyOf([]string{"a", "b"}) {
		t.Fatalf("Parent() = %q, %v", p, ok)
	}
	root := KeyOf(nil)
	if _, ok := root.Parent(); ok {
		t.Fatal("root must have no parent")
	}
	one := KeyOf([]string{"x"})
	p, ok = one.Parent()
	if !ok || p != root {
		t.Fatalf("Parent of depth-1 key = %q, %v; want root", p, ok)
	}
}

func TestKeyIsAncestorOf(t *testing.T) {
	a := KeyOf([]string{"vho1"})
	b := KeyOf([]string{"vho1", "io2"})
	c := KeyOf([]string{"vho1x"})
	root := KeyOf(nil)

	if !a.IsAncestorOf(b) {
		t.Error("vho1 should be ancestor of vho1/io2")
	}
	if !a.IsAncestorOf(a) {
		t.Error("IsAncestorOf must be reflexive")
	}
	if a.IsAncestorOf(c) {
		t.Error("vho1 must not be ancestor of vho1x (prefix trap)")
	}
	if b.IsAncestorOf(a) {
		t.Error("child must not be ancestor of parent")
	}
	if !root.IsAncestorOf(b) {
		t.Error("root is ancestor of everything")
	}
}

func TestInsertCreatesAncestors(t *testing.T) {
	tr := New()
	n := tr.Insert([]string{"a", "b", "c"})
	if n.Depth != 3 {
		t.Fatalf("depth = %d, want 3", n.Depth)
	}
	if tr.Len() != 4 { // root, a, a/b, a/b/c
		t.Fatalf("Len() = %d, want 4", tr.Len())
	}
	if tr.Lookup(KeyOf([]string{"a", "b"})) == nil {
		t.Fatal("intermediate node a/b missing")
	}
	// Re-insert is idempotent.
	n2 := tr.Insert([]string{"a", "b", "c"})
	if n2 != n || tr.Len() != 4 {
		t.Fatal("Insert is not idempotent")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWalkOrders(t *testing.T) {
	tr := New()
	tr.Insert([]string{"a", "x"})
	tr.Insert([]string{"a", "y"})
	tr.Insert([]string{"b"})

	var bottomUp []int
	tr.WalkBottomUp(func(n *Node) { bottomUp = append(bottomUp, n.Depth) })
	for i := 1; i < len(bottomUp); i++ {
		if bottomUp[i] > bottomUp[i-1] {
			t.Fatalf("bottom-up walk not monotonically non-increasing in depth: %v", bottomUp)
		}
	}
	var topDown []int
	tr.WalkTopDown(func(n *Node) { topDown = append(topDown, n.Depth) })
	for i := 1; i < len(topDown); i++ {
		if topDown[i] < topDown[i-1] {
			t.Fatalf("top-down walk not monotonically non-decreasing in depth: %v", topDown)
		}
	}
	if len(bottomUp) != tr.Len() || len(topDown) != tr.Len() {
		t.Fatalf("walks visited %d/%d nodes, want %d", len(bottomUp), len(topDown), tr.Len())
	}
}

func TestAtDepth(t *testing.T) {
	tr := New()
	tr.Insert([]string{"a", "x"})
	tr.Insert([]string{"b", "y"})
	if got := len(tr.AtDepth(0)); got != 1 {
		t.Fatalf("AtDepth(0) = %d nodes, want 1", got)
	}
	if got := len(tr.AtDepth(1)); got != 2 {
		t.Fatalf("AtDepth(1) = %d nodes, want 2", got)
	}
	if got := tr.AtDepth(99); got != nil {
		t.Fatalf("AtDepth(99) = %v, want nil", got)
	}
	if got := tr.AtDepth(-1); got != nil {
		t.Fatalf("AtDepth(-1) = %v, want nil", got)
	}
}

func TestTypicalDegrees(t *testing.T) {
	tr := New()
	// Build a regular 3 x 2 tree.
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			tr.Insert([]string{"l1-" + strconv.Itoa(i), "l2-" + strconv.Itoa(j)})
		}
	}
	degs := tr.TypicalDegrees()
	if len(degs) != 2 || degs[0] != 3 || degs[1] != 2 {
		t.Fatalf("TypicalDegrees() = %v, want [3 2]", degs)
	}
}

// TestRandomTreeInvariants inserts random paths and checks structural
// invariants hold throughout.
func TestRandomTreeInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		n := int(nRaw%64) + 1
		for i := 0; i < n; i++ {
			depth := rng.Intn(5) + 1
			path := make([]string, depth)
			for d := range path {
				path[d] = "n" + strconv.Itoa(rng.Intn(4))
			}
			node := tr.Insert(path)
			if node.Key != KeyOf(path) {
				return false
			}
			if tr.Lookup(KeyOf(path)) != node {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeAccessors(t *testing.T) {
	tr := New()
	leaf := tr.Insert([]string{"p", "q"})
	p := tr.Lookup(KeyOf([]string{"p"}))
	if leaf.Parent() != p {
		t.Fatal("Parent() wrong")
	}
	if p.Child("q") != leaf {
		t.Fatal("Child() wrong")
	}
	if !leaf.IsLeaf() || p.IsLeaf() {
		t.Fatal("IsLeaf() wrong")
	}
	if p.Degree() != 1 {
		t.Fatalf("Degree() = %d, want 1", p.Degree())
	}
	if tr.Root().String() != "<root>" {
		t.Fatalf("root String() = %q", tr.Root().String())
	}
	if leaf.String() != "p/q" {
		t.Fatalf("leaf String() = %q", leaf.String())
	}
	if tr.Node(leaf.ID) != leaf {
		t.Fatal("Node(id) wrong")
	}
	if got := len(tr.Nodes()); got != tr.Len() {
		t.Fatalf("Nodes() len %d != Len() %d", got, tr.Len())
	}
	if tr.Height() != 3 {
		t.Fatalf("Height() = %d, want 3", tr.Height())
	}
}

// TestAddChild: AddChild under a known parent ID builds the same tree
// as Insert of the full path, and reports an existing child as not
// added.
func TestAddChild(t *testing.T) {
	tr, want := New(), New()
	for _, path := range [][]string{{"a"}, {"a", "x"}, {"b"}, {"a", "y"}, {"b", "x"}, {"a", "x", "z"}} {
		parent := want.Lookup(KeyOf(path[:len(path)-1]))
		n, added := tr.AddChild(parent.ID, path[len(path)-1])
		if w := want.Insert(path); !added || n.ID != w.ID || n.Key != w.Key || n.Depth != w.Depth {
			t.Fatalf("AddChild(%d, %q) = node %d %q depth %d (added %v), want node %d %q depth %d",
				parent.ID, path[len(path)-1], n.ID, n.Key, n.Depth, added, w.ID, w.Key, w.Depth)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	x := tr.Lookup(KeyOf([]string{"a", "x"}))
	if n, added := tr.AddChild(x.Parent().ID, "x"); added || n != x {
		t.Fatalf("AddChild of an existing child = %v (added %v), want %v", n, added, x)
	}
	if leaf := tr.Lookup(KeyOf([]string{"b", "x"})); leaf.Child("none") != nil || tr.Insert([]string{"b", "x", "c"}).Parent() != leaf {
		t.Fatal("a leaf must gain its first child through Insert")
	}
	if tr.Len() != want.Len()+1 {
		t.Fatalf("tree has %d nodes, want %d", tr.Len(), want.Len()+1)
	}
}
