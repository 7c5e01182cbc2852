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
	n := tr.Intern([]string{"a", "b", "c"})
	if tr.Depth(n) != 3 {
		t.Fatalf("depth = %d, want 3", tr.Depth(n))
	}
	if tr.Len() != 4 { // root, a, a/b, a/b/c
		t.Fatalf("Len() = %d, want 4", tr.Len())
	}
	if tr.Lookup(KeyOf([]string{"a", "b"})) < 0 {
		t.Fatal("intermediate node a/b missing")
	}
	// Re-insert is idempotent.
	if n2 := tr.Intern([]string{"a", "b", "c"}); n2 != n || tr.Len() != 4 {
		t.Fatal("Intern is not idempotent")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestInternMatchesInsert checks that Intern, Lookup and AddChild agree
// on IDs, and that Intern allocates nothing once nodes exist.
func TestInternMatchesInsert(t *testing.T) {
	tr, byChild := New(), New()
	paths := [][]string{
		{"a"}, {"a", "b"}, {"a", "b", "c"}, {"d"}, {"d", "e"}, {},
	}
	for _, p := range paths {
		id := tr.Intern(p)
		if got := tr.Lookup(KeyOf(p)); got != id {
			t.Fatalf("Intern(%v) = %d, Lookup = %d", p, id, got)
		}
		c := Root
		for _, label := range p {
			c, _ = byChild.AddChild(c, label)
		}
		if c != id {
			t.Fatalf("Intern(%v) = %d, AddChild walk = %d", p, id, c)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	warm := [][]string{{"a", "b", "c"}, {"d", "e"}, {"a"}}
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range warm {
			tr.Intern(p)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Intern allocates %.1f per run, want 0", allocs)
	}
}

// TestInvalidLabels: a path component that is empty or holds the Key
// separator would give two nodes one Key (or a node the root's); Intern
// and AddChild refuse it and leave the tree unchanged, and Lookup keeps
// resolving the root and real paths.
func TestInvalidLabels(t *testing.T) {
	tr := New()
	ab := tr.Intern([]string{"a", "b"})
	for _, p := range [][]string{{""}, {"a\x1fb"}, {"a", ""}, {"x", "y\x1f"}, {"x", "", "z"}} {
		if id := tr.Intern(p); id != -1 {
			t.Fatalf("Intern(%q) = %d, want -1", p, id)
		}
	}
	if id, added := tr.AddChild(Root, ""); id != -1 || added {
		t.Fatalf("AddChild(root, \"\") = %d, %v; want -1, false", id, added)
	}
	if tr.Len() != 3 {
		t.Fatalf("refused paths grew the tree to %d nodes", tr.Len())
	}
	if tr.Lookup("") != Root || tr.Lookup(KeyOf([]string{"a", "b"})) != ab || tr.Lookup("a\x1f") != -1 {
		t.Fatal("Lookup disturbed by refused paths")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWalkOrders(t *testing.T) {
	tr := New()
	tr.Intern([]string{"a", "x"})
	tr.Intern([]string{"b"})
	tr.Intern([]string{"a", "y"})

	// Levels, deepest first, are a bottom-up sweep: every child comes
	// before its parent.
	seen := make([]bool, tr.Len())
	visited := 0
	for d := tr.Height() - 1; d >= 0; d-- {
		for _, id := range tr.Level(d) {
			for c := tr.FirstChild(int(id)); c >= 0; c = tr.NextSibling(c) {
				if !seen[c] {
					t.Fatalf("node %d visited before its child %d", id, c)
				}
			}
			seen[id] = true
			visited++
		}
	}
	if visited != tr.Len() {
		t.Fatalf("levels hold %d nodes, want %d", visited, tr.Len())
	}
	// Children come in ascending ID order: a's children are x then y,
	// although b was inserted between them.
	a := tr.Lookup("a")
	x, y := tr.FirstChild(a), -1
	if x >= 0 {
		y = tr.NextSibling(x)
	}
	if tr.Label(x) != "x" || tr.Label(y) != "y" || tr.NextSibling(y) != -1 || x > y {
		t.Fatalf("children of a: %d %d", x, y)
	}
}

func TestAtDepth(t *testing.T) {
	tr := New()
	tr.Intern([]string{"a", "x"})
	tr.Intern([]string{"b", "y"})
	if got := len(tr.Level(0)); got != 1 {
		t.Fatalf("Level(0) = %d nodes, want 1", got)
	}
	if got := len(tr.Level(1)); got != 2 {
		t.Fatalf("Level(1) = %d nodes, want 2", got)
	}
	if got := tr.Level(99); got != nil {
		t.Fatalf("Level(99) = %v, want nil", got)
	}
	if got := tr.Level(-1); got != nil {
		t.Fatalf("Level(-1) = %v, want nil", got)
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
			id := tr.Intern(path)
			if tr.Key(id) != KeyOf(path) || tr.Lookup(KeyOf(path)) != id {
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
	leaf := tr.Intern([]string{"p", "q"})
	p := tr.Lookup(KeyOf([]string{"p"}))
	if tr.Parent(leaf) != p || tr.Parent(Root) != -1 {
		t.Fatal("Parent() wrong")
	}
	if tr.Child(p, "q") != leaf || tr.Child(p, "none") != -1 || tr.Child(leaf, "q") != -1 {
		t.Fatal("Child() wrong")
	}
	if tr.FirstChild(leaf) != -1 || tr.FirstChild(p) != leaf {
		t.Fatal("FirstChild() wrong")
	}
	if tr.Key(Root).String() != "<root>" || tr.Label(Root) != "" {
		t.Fatalf("root Key() = %q", tr.Key(Root))
	}
	if tr.Key(leaf).String() != "p/q" || tr.Label(leaf) != "q" || tr.Depth(leaf) != 2 {
		t.Fatalf("leaf Key() = %q, Label() = %q", tr.Key(leaf), tr.Label(leaf))
	}
	if tr.Lookup("p\x1fq\x1fr") != -1 || tr.Lookup("z") != -1 {
		t.Fatal("Lookup of an absent key must be -1")
	}
	if tr.Height() != 3 {
		t.Fatalf("Height() = %d, want 3", tr.Height())
	}
}

// TestAddChild: AddChild under a known parent ID builds the same tree
// as Intern of the full path, and reports an existing child as not
// added.
func TestAddChild(t *testing.T) {
	tr, want := New(), New()
	for _, path := range [][]string{{"a"}, {"a", "x"}, {"b"}, {"a", "y"}, {"b", "x"}, {"a", "x", "z"}} {
		parent := want.Lookup(KeyOf(path[:len(path)-1]))
		n, added := tr.AddChild(parent, path[len(path)-1])
		if w := want.Intern(path); !added || n != w || tr.Key(n) != want.Key(w) || tr.Depth(n) != want.Depth(w) {
			t.Fatalf("AddChild(%d, %q) = node %d %q depth %d (added %v), want node %d %q depth %d",
				parent, path[len(path)-1], n, tr.Key(n), tr.Depth(n), added, w, want.Key(w), want.Depth(w))
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	x := tr.Lookup(KeyOf([]string{"a", "x"}))
	if n, added := tr.AddChild(tr.Parent(x), "x"); added || n != x {
		t.Fatalf("AddChild of an existing child = %v (added %v), want %v", n, added, x)
	}
	if leaf := tr.Lookup(KeyOf([]string{"b", "x"})); tr.Child(leaf, "none") != -1 || tr.Parent(tr.Intern([]string{"b", "x", "c"})) != leaf {
		t.Fatal("a leaf must gain its first child through Intern")
	}
	if tr.Len() != want.Len()+1 {
		t.Fatalf("tree has %d nodes, want %d", tr.Len(), want.Len()+1)
	}
}
