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
// # Representation
//
// A node is a dense int ID, assigned in insertion order (the root is
// ID 0), and the tree is a set of append-only arrays indexed by it:
//
//   - Parent(id) is the parent's ID (-1 for the root), Depth(id) the
//     distance from the root, Label(id) the last path component and
//     Key(id) the full encoded path;
//   - the children of id are FirstChild(id), then NextSibling of each
//     in turn, in ascending ID (insertion) order;
//   - Level(d) lists the IDs at depth d in ascending order, so walking
//     the levels from the deepest up is a bottom-up sweep in which
//     every child precedes its parent.
//
// Adding a node appends to each array and links it after its parent's
// last child: O(1) amortized. Paths resolve through one path table per
// tree: each node keeps a path hash — its parent's hash mixed with the
// per-tree-seeded maphash of its label — and one open-addressed table,
// at most half full, holds every non-root node's ID slotted by that
// hash. Intern hashes a whole path and makes one probe, verifying a
// hit by depth and by its label/parent walk; Child, Lookup and
// AddChild probe with the parent's hash plus one label. The seed is
// random per tree, so no input can aim collisions, and nothing of it
// reaches a Key or a checkpoint. The invariants are checked by
// Validate.
//
// A label must be non-empty and free of the Key separator U+001F, so
// that every node's Key is distinct from every other's and Key.Path
// recovers the labels (see ValidLabel). Intern and AddChild refuse a
// path that would create a node with any other label.
package hierarchy

import (
	"fmt"
	"hash/maphash"
	"math/bits"
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

// ValidLabel reports whether label may name a node: it is non-empty
// and does not contain the Key separator U+001F. Any other label would
// give its node the Key of another path (or of the root).
func ValidLabel(label string) bool {
	return label != "" && !strings.Contains(label, keySep)
}

// Root is the root node's ID.
const Root = 0

// Tree is a dynamically growing category hierarchy. The zero value is
// not usable; construct with New.
type Tree struct {
	parent []int32
	depth  []int32
	label  []string
	key    []Key
	// first and last are a node's first and last child, next its next
	// sibling; -1 for none.
	first, last, next []int32
	// hash is a node's path hash (0 for the root; see step); table is
	// the path table: every non-root node's ID, at the slot its hash's
	// top bits pick or linearly after it, with 0 for an empty slot. It
	// is never more than half full.
	hash   []uint64
	table  []int32
	shift  uint8 // 64 - log2(len(table))
	seed   maphash.Seed
	levels [][]int32 // node IDs grouped by depth, ascending
}

// minTable is the path table's initial size.
const minTable = 8

// New returns an empty tree containing only the root node.
func New() *Tree {
	t := &Tree{seed: maphash.MakeSeed()}
	t.rehash(minTable)
	t.add(-1, "", "")
	return t
}

// step extends the path hash h by one label: a multiplicative mix
// whose top bits, the ones that pick a slot, depend on every bit of h
// and of the label's hash.
//
//tiresias:hotpath
func (t *Tree) step(h uint64, label string) uint64 {
	return (h ^ maphash.String(t.seed, label)) * 0x9e3779b97f4a7c15
}

// add appends a node under parent (-1 for the root) with the given
// label and key, linking it after the parent's last child.
func (t *Tree) add(parent int32, label string, key Key) int32 {
	id := int32(len(t.parent))
	d, h := int32(0), uint64(0)
	if parent >= 0 {
		d, h = t.depth[parent]+1, t.step(t.hash[parent], label)
		if t.first[parent] < 0 {
			t.first[parent] = id
		} else {
			t.next[t.last[parent]] = id
		}
		t.last[parent] = id
	}
	t.parent = append(t.parent, parent)
	t.depth = append(t.depth, d)
	t.label = append(t.label, label)
	t.key = append(t.key, key)
	t.first = append(t.first, -1)
	t.last = append(t.last, -1)
	t.next = append(t.next, -1)
	t.hash = append(t.hash, h)
	switch {
	case parent < 0:
	case 2*int(id) > len(t.table):
		t.rehash(2 * len(t.table)) // places id with the rest
	default:
		t.place(id)
	}
	if int(d) == len(t.levels) {
		t.levels = append(t.levels, nil)
	}
	t.levels[d] = append(t.levels[d], id)
	return id
}

// place puts id in the first empty slot of its probe sequence.
func (t *Tree) place(id int32) {
	mask := uint64(len(t.table) - 1)
	i := t.hash[id] >> t.shift
	for t.table[i] != 0 {
		i = (i + 1) & mask
	}
	t.table[i] = id
}

// rehash replaces the path table with an empty one of n slots, a power
// of two, and places every non-root node in it.
func (t *Tree) rehash(n int) {
	t.table = make([]int32, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for id := int32(1); id < int32(len(t.parent)); id++ {
		t.place(id)
	}
}

// addChild creates the child of parent labeled label, which must be
// valid and absent. The label array keeps the caller's string: a
// record path that interned a node is usually the one (from a decoder
// cache) that looks it up again, and a string comparison against the
// same pointer is cheaper than against a copy.
func (t *Tree) addChild(parent int32, label string) int32 {
	key := Key(label)
	if parent != Root {
		key = t.key[parent] + keySep + Key(label)
	}
	return t.add(parent, label, key)
}

// Len returns the total number of nodes including the root.
func (t *Tree) Len() int { return len(t.parent) }

// Height returns the number of levels (root-only tree has height 1).
func (t *Tree) Height() int { return len(t.levels) }

// Parent returns the ID of id's parent, or -1 for the root.
func (t *Tree) Parent(id int) int { return int(t.parent[id]) }

// Depth returns id's distance from the root (root = 0).
func (t *Tree) Depth(id int) int { return int(t.depth[id]) }

// Label returns id's last path component ("" for the root).
func (t *Tree) Label(id int) string { return t.label[id] }

// Key returns id's full encoded path.
func (t *Tree) Key(id int) Key { return t.key[id] }

// FirstChild returns id's lowest-ID child, or -1 for a leaf.
//
//tiresias:hotpath
func (t *Tree) FirstChild(id int) int { return int(t.first[id]) }

// NextSibling returns the next-higher-ID child of id's parent, or -1
// when id is its parent's last child.
//
//tiresias:hotpath
func (t *Tree) NextSibling(id int) int { return int(t.next[id]) }

// Child returns the ID of id's child labeled label, or -1.
//
//tiresias:hotpath
func (t *Tree) Child(id int, label string) int {
	h := t.step(t.hash[id], label)
	mask := uint64(len(t.table) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		c := t.table[i]
		if c == 0 {
			return -1
		}
		if t.hash[c] == h && int(t.parent[c]) == id && t.label[c] == label {
			return int(c)
		}
	}
}

// Level returns the IDs at depth d in ascending order, or nil when the
// tree has no such level. The slice is shared; callers must not mutate
// it.
func (t *Tree) Level(d int) []int32 {
	if d < 0 || d >= len(t.levels) {
		return nil
	}
	return t.levels[d]
}

// Lookup returns the ID of the node with Key k, or -1 if it has never
// been inserted. It walks k's components through Child without
// decoding the Key.
func (t *Tree) Lookup(k Key) int {
	id, rest := Root, string(k)
	for more := k != ""; more && id >= 0; {
		var label string
		label, rest, more = strings.Cut(rest, keySep)
		id = t.Child(id, label)
	}
	return id
}

// Intern maps a category path to its node ID, creating the node and
// any missing ancestors on first sight; the empty path is the root. It
// returns -1, creating nothing, when a component it would create is
// not a ValidLabel. In the steady state — every component already
// known — it hashes each label once, makes one probe of the path
// table, checks no label's validity and allocates nothing.
//
//tiresias:hotpath
func (t *Tree) Intern(path []string) int {
	if len(path) == 0 {
		return Root
	}
	h := uint64(0)
	for _, label := range path {
		h = t.step(h, label)
	}
	mask := uint64(len(t.table) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		c := t.table[i]
		if c == 0 {
			return t.grow(path)
		}
		if t.hash[c] == h && t.is(c, path) {
			return int(c)
		}
	}
}

// is reports whether node id's path is path: the same depth, and the
// same label at every level of its parent walk.
//
//tiresias:hotpath
func (t *Tree) is(id int32, path []string) bool {
	if int(t.depth[id]) != len(path) {
		return false
	}
	for i := len(path) - 1; i >= 0; i-- {
		if t.label[id] != path[i] {
			return false
		}
		id = t.parent[id]
	}
	return true
}

// grow is Intern's miss path: it walks path's known prefix, then
// creates the rest once every label in it has been checked.
func (t *Tree) grow(path []string) int {
	id, i := Root, 0
	for ; i < len(path); i++ {
		c := t.Child(id, path[i])
		if c < 0 {
			break
		}
		id = c
	}
	for _, label := range path[i:] {
		if !ValidLabel(label) {
			return -1
		}
	}
	for _, label := range path[i:] {
		id = int(t.addChild(int32(id), label))
	}
	return id
}

// AddChild returns the ID of the child labeled label of the node with
// ID parent, creating it when absent; added reports whether it was
// created. An invalid label returns -1, false. It is Intern for a
// caller that already holds the parent, such as a checkpoint restore
// replaying nodes in ID order.
func (t *Tree) AddChild(parent int, label string) (id int, added bool) {
	if c := t.Child(parent, label); c >= 0 {
		return c, false
	}
	if !ValidLabel(label) {
		return -1, false
	}
	return int(t.addChild(int32(parent), label)), true
}

// Validate checks the invariants: every array covers every node; each
// non-root node has a lower-ID parent, a valid label, a path hash that
// is its parent's mixed with its label, a path-table entry Child
// resolves to it, its parent's depth plus one and its parent's Key
// extended by its label; each node's sibling chain lists exactly its
// children, in ascending ID order, ending at its last child; the path
// table holds each non-root node once and is at most half full; and
// the levels partition the nodes by depth, in ascending ID order. It
// is used by tests and returns a descriptive error on the first
// violation found.
func (t *Tree) Validate() error {
	n := len(t.parent)
	for _, l := range []int{len(t.depth), len(t.label), len(t.key), len(t.first), len(t.last), len(t.next), len(t.hash)} {
		if l != n {
			return fmt.Errorf("hierarchy: arrays sized %d, tree has %d nodes", l, n)
		}
	}
	if n == 0 || t.parent[Root] != -1 || t.depth[Root] != 0 || t.key[Root] != "" || t.hash[Root] != 0 {
		return fmt.Errorf("hierarchy: bad root")
	}
	for id := 1; id < n; id++ {
		p, label, k := t.parent[id], t.label[id], t.key[id]
		switch {
		case p < 0 || int(p) >= id:
			return fmt.Errorf("hierarchy: node %d has parent %d", id, p)
		case !ValidLabel(label):
			return fmt.Errorf("hierarchy: node %d has label %q", id, label)
		case t.hash[id] != t.step(t.hash[p], label):
			return fmt.Errorf("hierarchy: node %q hash is not its parent's mixed with its label", k)
		case t.Child(int(p), label) != id:
			return fmt.Errorf("hierarchy: parent of %q does not link back", k)
		case t.depth[id] != t.depth[p]+1:
			return fmt.Errorf("hierarchy: node %q depth %d, parent depth %d", k, t.depth[id], t.depth[p])
		case k != KeyOf(append(t.key[p].Path(), label)):
			return fmt.Errorf("hierarchy: node %d has key %q under parent %q", id, k, t.key[p])
		}
	}
	listed := 0
	for id := 0; id < n; id++ {
		prev := int32(-1)
		for c := t.first[id]; c >= 0; c = t.next[c] {
			if c <= prev || int(c) >= n || int(t.parent[c]) != id {
				return fmt.Errorf("hierarchy: child list of node %d holds %d after %d", id, c, prev)
			}
			listed, prev = listed+1, c
		}
		if t.last[id] != prev {
			return fmt.Errorf("hierarchy: node %d's child list ends at %d, last child is %d", id, prev, t.last[id])
		}
	}
	if listed != n-1 {
		return fmt.Errorf("hierarchy: child lists hold %d nodes, tree has %d non-root nodes", listed, n-1)
	}
	if err := t.validateTable(); err != nil {
		return err
	}
	total := 0
	for d, level := range t.levels {
		for i, id := range level {
			if int(id) >= n || int(t.depth[id]) != d || (i > 0 && id <= level[i-1]) {
				return fmt.Errorf("hierarchy: level %d holds node %d at %d out of order or depth", d, id, i)
			}
		}
		total += len(level)
	}
	if total != n {
		return fmt.Errorf("hierarchy: levels hold %d nodes, tree has %d", total, n)
	}
	return nil
}

// validateTable checks the path table: a power-of-two size its shift
// matches, at most half full, and holding each non-root node exactly
// once (so, with the Child check of every node in Validate, each entry
// is reachable from its slot).
func (t *Tree) validateTable() error {
	n := len(t.table)
	if n < minTable || n&(n-1) != 0 || int(t.shift) != 64-bits.TrailingZeros(uint(n)) {
		return fmt.Errorf("hierarchy: path table of %d slots with shift %d", n, t.shift)
	}
	seen := make([]bool, len(t.parent))
	entries := 0
	for _, id := range t.table {
		if id == 0 {
			continue
		}
		if id < 0 || int(id) >= len(t.parent) || seen[id] {
			return fmt.Errorf("hierarchy: path table holds node %d twice or out of range", id)
		}
		seen[id] = true
		entries++
	}
	if entries != len(t.parent)-1 || 2*entries > n {
		return fmt.Errorf("hierarchy: path table holds %d entries in %d slots, tree has %d non-root nodes",
			entries, n, len(t.parent)-1)
	}
	return nil
}
