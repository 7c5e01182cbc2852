// Package hierarchy implements the hierarchical category domain that
// Tiresias operates on (§III of the paper).
//
// Operational data records carry a category drawn from a tree-shaped
// domain: a trouble-description taxonomy or a network-path hierarchy
// (SHO → VHO → IO → CO → DSLAM). Every record maps to a leaf; interior
// nodes aggregate their descendants. The Tree type here grows
// dynamically as unseen categories arrive, which matches the online
// setting: the category universe is not known up front.
//
// # Flat (CSR) representation
//
// Alongside the pointer-linked Node objects, Tree maintains a flat
// CSR-style view of the topology for the per-timeunit hot path:
//
//   - Parent[id] is the parent's node ID (-1 for the root);
//   - the children of id are ChildIDs[ChildOff[id]:ChildOff[id+1]],
//     in insertion order;
//   - TopDown lists every node ID in level order (root first, and in
//     insertion order within a level), BottomUp in inverse level order
//     (deepest level first, root last);
//   - Depth[id] is the node's depth and Rank[id] its position in
//     TopDown, so a caller holding a few IDs can put them in level
//     order (ascending ID within a level) by ordering their ranks,
//     without walking TopDown.
//
// The arrays are rebuilt lazily — CSR() reuses the cached build until
// the tree has grown — so steady-state traffic, where the category
// universe has stabilized, walks plain int32 slices with no pointer
// chasing and no per-node closure calls. Invariants (ID-indexed
// arrays, offsets summing to Len()-1 edges, both orders being
// depth-consistent permutations, Depth and Rank agreeing with the
// nodes and with TopDown) are checked by Validate.
//
// Record paths can skip the string Key encoding entirely: Intern maps
// a path directly to its node ID, creating nodes on first sight.
package hierarchy

import (
	"fmt"
	"sort"
	"strings"
)

// keySep separates path components inside a Key. It is a control
// character so it cannot collide with reasonable label text.
const keySep = "\x1f"

// Key is the canonical string encoding of a category path. It is used
// as a map key throughout the system.
type Key string

// KeyOf encodes a path as a Key. The empty path encodes the root.
func KeyOf(path []string) Key {
	return Key(strings.Join(path, keySep))
}

// Path decodes the Key back into its components. The root Key decodes
// to a nil path.
func (k Key) Path() []string {
	if k == "" {
		return nil
	}
	return strings.Split(string(k), keySep)
}

// String renders the Key using "/" separators for human consumption.
func (k Key) String() string {
	if k == "" {
		return "<root>"
	}
	return strings.Join(k.Path(), "/")
}

// Depth reports the number of components in the Key (root = 0).
func (k Key) Depth() int {
	if k == "" {
		return 0
	}
	return strings.Count(string(k), keySep) + 1
}

// Parent returns the Key of the parent category, and false when k is
// the root.
func (k Key) Parent() (Key, bool) {
	if k == "" {
		return "", false
	}
	i := strings.LastIndex(string(k), keySep)
	if i < 0 {
		return "", true
	}
	return Key(k[:i]), true
}

// IsAncestorOf reports whether k is equal to or an ancestor of other.
// This is the ⊒ relation used when matching anomalies against the
// reference method (§VII-B).
func (k Key) IsAncestorOf(other Key) bool {
	if k == other {
		return true
	}
	if k == "" {
		return true // root is an ancestor of everything
	}
	return strings.HasPrefix(string(other), string(k)+keySep)
}

// Node is a single category in the hierarchy. Exported fields are
// read-only for callers; mutation goes through Tree.
type Node struct {
	// ID is a dense index assigned in insertion order. Algorithm
	// packages use it to attach per-node state in flat slices.
	ID int
	// Label is the last path component ("" for the root).
	Label string
	// Key is the full encoded path.
	Key Key
	// Depth is the distance from the root (root = 0).
	Depth int

	parent   *Node
	children map[string]*Node
	ordered  []*Node // children in insertion order, for deterministic walks
}

// Parent returns the parent node, or nil for the root.
func (n *Node) Parent() *Node { return n.parent }

// Children returns the node's children in insertion order. The
// returned slice is shared; callers must not mutate it.
func (n *Node) Children() []*Node { return n.ordered }

// Child returns the child with the given label, or nil.
func (n *Node) Child(label string) *Node { return n.children[label] }

// IsLeaf reports whether the node currently has no children.
func (n *Node) IsLeaf() bool { return len(n.ordered) == 0 }

// Degree returns the number of children.
func (n *Node) Degree() int { return len(n.ordered) }

// String implements fmt.Stringer.
func (n *Node) String() string { return n.Key.String() }

// Tree is a dynamically growing category hierarchy. The zero value is
// not usable; construct with New.
type Tree struct {
	root   *Node
	nodes  []*Node       // all nodes, indexed by ID
	byKey  map[Key]*Node // key → node
	levels [][]*Node     // nodes grouped by depth, insertion order

	// flat is the cached CSR view, valid while flatLen == len(nodes).
	flat    CSR
	flatLen int
}

// CSR is the flat, dense-ID view of the tree topology (see the package
// doc). The slices are owned by the Tree and valid until the next
// insertion; callers must not mutate or retain them across growth.
type CSR struct {
	// Parent maps node ID → parent ID; Parent[root] = -1.
	Parent []int32
	// ChildOff/ChildIDs encode children adjacency: the children of id
	// are ChildIDs[ChildOff[id]:ChildOff[id+1]], in insertion order.
	ChildOff []int32
	ChildIDs []int32
	// TopDown holds every node ID in level order (root first); BottomUp
	// in inverse level order (deepest first, root last). Within a
	// level both use insertion order, matching WalkTopDown/WalkBottomUp.
	TopDown  []int32
	BottomUp []int32
	// Depth maps node ID → depth (root = 0). Rank maps node ID → its
	// index in TopDown: ranks order nodes by depth, then by ID.
	Depth []int32
	Rank  []int32
}

// New returns an empty tree containing only the root node.
func New() *Tree {
	t := &Tree{byKey: make(map[Key]*Node)}
	t.root = t.newNode(nil, "")
	return t
}

func (t *Tree) newNode(parent *Node, label string) *Node {
	var key Key
	depth := 0
	if parent != nil {
		if parent.Key == "" {
			key = Key(label)
		} else {
			key = Key(string(parent.Key) + keySep + label)
		}
		depth = parent.Depth + 1
	}
	n := &Node{
		ID:     len(t.nodes),
		Label:  label,
		Key:    key,
		Depth:  depth,
		parent: parent,
	}
	t.nodes = append(t.nodes, n)
	t.byKey[key] = n
	for len(t.levels) <= depth {
		t.levels = append(t.levels, nil)
	}
	t.levels[depth] = append(t.levels[depth], n)
	if parent != nil {
		// Most nodes are leaves: a node's map is made for its first
		// child.
		if parent.children == nil {
			parent.children = make(map[string]*Node)
		}
		parent.children[label] = n
		parent.ordered = append(parent.ordered, n)
	}
	return n
}

// Root returns the root node.
func (t *Tree) Root() *Node { return t.root }

// Len returns the total number of nodes including the root.
func (t *Tree) Len() int { return len(t.nodes) }

// Height returns the number of levels (root-only tree has height 1).
func (t *Tree) Height() int { return len(t.levels) }

// Node returns the node with the given ID.
func (t *Tree) Node(id int) *Node { return t.nodes[id] }

// Lookup returns the node for a Key, or nil if it has never been
// inserted.
func (t *Tree) Lookup(k Key) *Node { return t.byKey[k] }

// Insert returns the node for the given path, creating it and any
// missing ancestors. An empty path returns the root.
func (t *Tree) Insert(path []string) *Node {
	n := t.root
	for _, label := range path {
		c := n.children[label]
		if c == nil {
			c = t.newNode(n, label)
		}
		n = c
	}
	return n
}

// AddChild returns the child labeled label of the node with ID
// parentID, creating it when absent; added reports whether it was
// created. It is Insert for a caller that already holds the parent,
// such as a checkpoint restore replaying nodes in ID order.
func (t *Tree) AddChild(parentID int, label string) (n *Node, added bool) {
	p := t.nodes[parentID]
	if c := p.children[label]; c != nil {
		return c, false
	}
	return t.newNode(p, label), true
}

// InsertKey is Insert for an already-encoded Key.
func (t *Tree) InsertKey(k Key) *Node {
	if n := t.byKey[k]; n != nil {
		return n
	}
	return t.Insert(k.Path())
}

// Intern maps a category path directly to its node ID, creating the
// node (and missing ancestors) on first sight. In the steady state —
// every component already known — it performs one map lookup per
// component and allocates nothing, so record ingestion never touches
// the string Key encoding.
//
//tiresias:hotpath
func (t *Tree) Intern(path []string) int {
	return t.Insert(path).ID
}

// CSR returns the flat traversal view of the tree, rebuilding the
// cached arrays only when the tree has grown since the last call. The
// returned value is shared and valid until the next insertion.
//
//tiresias:hotpath
func (t *Tree) CSR() *CSR {
	if t.flatLen != len(t.nodes) {
		t.rebuildCSR()
	}
	return &t.flat
}

// rebuildCSR materializes the CSR arrays from the node objects in
// O(Len()) time and with at most one allocation per array (amortized
// zero once capacities stabilize).
func (t *Tree) rebuildCSR() {
	n := len(t.nodes)
	f := &t.flat
	f.Parent = growInt32(f.Parent, n)
	f.ChildOff = growInt32(f.ChildOff, n+1)
	f.ChildIDs = growInt32(f.ChildIDs, n-1)
	f.TopDown = growInt32(f.TopDown, n)
	f.BottomUp = growInt32(f.BottomUp, n)
	f.Depth = growInt32(f.Depth, n)
	f.Rank = growInt32(f.Rank, n)

	off := int32(0)
	for id, node := range t.nodes {
		f.Depth[id] = int32(node.Depth)
		if node.parent == nil {
			f.Parent[id] = -1
		} else {
			f.Parent[id] = int32(node.parent.ID)
		}
		f.ChildOff[id] = off
		for _, c := range node.ordered {
			f.ChildIDs[off] = int32(c.ID)
			off++
		}
	}
	f.ChildOff[n] = off

	i, j := 0, n
	for _, level := range t.levels {
		j -= len(level)
		for k, node := range level {
			f.TopDown[i] = int32(node.ID)
			f.BottomUp[j+k] = int32(node.ID)
			f.Rank[node.ID] = int32(i)
			i++
		}
	}
	t.flatLen = n
}

// growInt32 returns a slice of exactly length n, reusing s's backing
// array when it is large enough.
func growInt32(s []int32, n int) []int32 {
	if n < 0 {
		n = 0
	}
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n, n+n/2+8)
}

// AtDepth returns all nodes at the given depth in insertion order. The
// returned slice is shared; callers must not mutate it.
func (t *Tree) AtDepth(depth int) []*Node {
	if depth < 0 || depth >= len(t.levels) {
		return nil
	}
	return t.levels[depth]
}

// Nodes returns all nodes in ID (insertion) order. The returned slice
// is shared; callers must not mutate it.
func (t *Tree) Nodes() []*Node { return t.nodes }

// WalkBottomUp visits every node in inverse level order: deepest level
// first, root last. Within a level, nodes are visited in insertion
// order. This is the traversal used by the SHHH computation and by
// ADA's merge pass. It iterates the materialized BottomUp ID order, so
// the visit order is by construction identical to the flat CSR walk.
func (t *Tree) WalkBottomUp(fn func(n *Node)) {
	for _, id := range t.CSR().BottomUp {
		fn(t.nodes[id])
	}
}

// WalkTopDown visits every node in level order: root first. This is
// the traversal used by ADA's split pass. It iterates the materialized
// TopDown ID order.
func (t *Tree) WalkTopDown(fn func(n *Node)) {
	for _, id := range t.CSR().TopDown {
		fn(t.nodes[id])
	}
}

// TypicalDegrees reports, per level k (1-based as in Table II of the
// paper), the median out-degree of nodes at depth k-1 that have
// children. It reproduces the "typical degree at kth level" rows.
func (t *Tree) TypicalDegrees() []int {
	out := make([]int, 0, len(t.levels))
	for d := 0; d < len(t.levels)-1; d++ {
		degs := make([]int, 0, len(t.levels[d]))
		for _, n := range t.levels[d] {
			if n.Degree() > 0 {
				degs = append(degs, n.Degree())
			}
		}
		if len(degs) == 0 {
			break
		}
		sort.Ints(degs)
		out = append(out, degs[len(degs)/2])
	}
	return out
}

// Validate checks internal invariants (parent/child symmetry, key
// uniqueness, level bookkeeping). It is used by tests and returns a
// descriptive error on the first violation found.
func (t *Tree) Validate() error {
	if t.root == nil {
		return fmt.Errorf("hierarchy: nil root")
	}
	seen := make(map[Key]bool, len(t.nodes))
	for id, n := range t.nodes {
		if n.ID != id {
			return fmt.Errorf("hierarchy: node %q has ID %d at index %d", n.Key, n.ID, id)
		}
		if seen[n.Key] {
			return fmt.Errorf("hierarchy: duplicate key %q", n.Key)
		}
		seen[n.Key] = true
		if n.parent == nil {
			if n != t.root {
				return fmt.Errorf("hierarchy: non-root node %q has nil parent", n.Key)
			}
			continue
		}
		if n.parent.children[n.Label] != n {
			return fmt.Errorf("hierarchy: parent of %q does not link back", n.Key)
		}
		if n.Depth != n.parent.Depth+1 {
			return fmt.Errorf("hierarchy: node %q depth %d, parent depth %d", n.Key, n.Depth, n.parent.Depth)
		}
		if got, ok := n.Key.Parent(); !ok || got != n.parent.Key {
			return fmt.Errorf("hierarchy: key parent of %q mismatch", n.Key)
		}
	}
	total := 0
	for d, level := range t.levels {
		for _, n := range level {
			if n.Depth != d {
				return fmt.Errorf("hierarchy: node %q at level %d has depth %d", n.Key, d, n.Depth)
			}
		}
		total += len(level)
	}
	if total != len(t.nodes) {
		return fmt.Errorf("hierarchy: levels hold %d nodes, tree has %d", total, len(t.nodes))
	}
	return t.validateCSR()
}

// validateCSR checks the flat-view invariants documented on CSR: array
// lengths, parent links, child ranges mirroring Node.Children, and the
// two traversal orders being depth-consistent permutations.
func (t *Tree) validateCSR() error {
	f := t.CSR()
	n := len(t.nodes)
	if len(f.Parent) != n || len(f.TopDown) != n || len(f.BottomUp) != n || len(f.Depth) != n || len(f.Rank) != n {
		return fmt.Errorf("hierarchy: CSR arrays sized %d/%d/%d/%d/%d, tree has %d nodes",
			len(f.Parent), len(f.TopDown), len(f.BottomUp), len(f.Depth), len(f.Rank), n)
	}
	if len(f.ChildOff) != n+1 || len(f.ChildIDs) != n-1 {
		return fmt.Errorf("hierarchy: CSR adjacency sized off=%d ids=%d, want %d/%d",
			len(f.ChildOff), len(f.ChildIDs), n+1, n-1)
	}
	for id, node := range t.nodes {
		switch {
		case node.parent == nil && f.Parent[id] != -1:
			return fmt.Errorf("hierarchy: CSR parent of root %q is %d, want -1", node.Key, f.Parent[id])
		case node.parent != nil && int(f.Parent[id]) != node.parent.ID:
			return fmt.Errorf("hierarchy: CSR parent of %q is %d, want %d", node.Key, f.Parent[id], node.parent.ID)
		}
		if int(f.Depth[id]) != node.Depth {
			return fmt.Errorf("hierarchy: CSR depth of %q is %d, want %d", node.Key, f.Depth[id], node.Depth)
		}
		lo, hi := f.ChildOff[id], f.ChildOff[id+1]
		if int(hi-lo) != len(node.ordered) {
			return fmt.Errorf("hierarchy: CSR child range of %q holds %d IDs, node has %d children",
				node.Key, hi-lo, len(node.ordered))
		}
		for i, c := range node.ordered {
			if int(f.ChildIDs[lo+int32(i)]) != c.ID {
				return fmt.Errorf("hierarchy: CSR child %d of %q is %d, want %d",
					i, node.Key, f.ChildIDs[lo+int32(i)], c.ID)
			}
		}
	}
	for name, order := range map[string][]int32{"TopDown": f.TopDown, "BottomUp": f.BottomUp} {
		seen := make([]bool, n)
		for _, id := range order {
			if id < 0 || int(id) >= n || seen[id] {
				return fmt.Errorf("hierarchy: CSR %s is not a permutation (id %d)", name, id)
			}
			seen[id] = true
		}
	}
	for i, id := range f.TopDown {
		if int(f.Rank[id]) != i {
			return fmt.Errorf("hierarchy: CSR rank of node %d is %d, TopDown holds it at %d", id, f.Rank[id], i)
		}
	}
	for i := 1; i < n; i++ {
		if t.nodes[f.TopDown[i]].Depth < t.nodes[f.TopDown[i-1]].Depth {
			return fmt.Errorf("hierarchy: CSR TopDown not in level order at %d", i)
		}
		if t.nodes[f.BottomUp[i]].Depth > t.nodes[f.BottomUp[i-1]].Depth {
			return fmt.Errorf("hierarchy: CSR BottomUp not in inverse level order at %d", i)
		}
		// Ascending ID within a level is what makes rank order visit a
		// node's children in ChildIDs order.
		if f.Depth[f.TopDown[i]] == f.Depth[f.TopDown[i-1]] && f.TopDown[i] < f.TopDown[i-1] {
			return fmt.Errorf("hierarchy: CSR TopDown not in ascending ID order within level at %d", i)
		}
	}
	return nil
}
