package hierarchy_test

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tiresias/internal/checkpoint"
	"tiresias/internal/hierarchy"
)

// treeModel is FuzzTreeIntern's reference: every full path ever
// created, with IDs in first-sight order. It knows nothing of the
// tree's arrays or child maps.
type treeModel struct {
	paths [][]string     // by ID; paths[0] is the root's, empty
	ids   map[string]int // fmt %q of a path → ID
}

func newTreeModel() *treeModel {
	return &treeModel{paths: [][]string{{}}, ids: map[string]int{"[]": 0}}
}

func (m *treeModel) id(path []string) (int, bool) {
	id, ok := m.ids[fmt.Sprintf("%q", path)]
	return id, ok
}

// modelLabel is the label rule from its reason: an empty label would
// share its parent's Key, one holding U+001F another path's.
func modelLabel(l string) bool { return l != "" && !strings.Contains(l, "\x1f") }

// intern returns path's ID, creating the missing suffix when each of
// its labels is valid and -1, creating nothing, otherwise.
func (m *treeModel) intern(path []string) int {
	known := 0
	for known < len(path) {
		if _, ok := m.id(path[:known+1]); !ok {
			break
		}
		known++
	}
	if !slices.ContainsFunc(path[known:], func(l string) bool { return !modelLabel(l) }) {
		for i := known + 1; i <= len(path); i++ {
			m.ids[fmt.Sprintf("%q", path[:i])] = len(m.paths)
			m.paths = append(m.paths, slices.Clone(path[:i]))
		}
	}
	id, ok := m.id(path)
	if !ok {
		return -1
	}
	return id
}

// FuzzTreeIntern holds Tree to the path model on random Intern and
// AddChild sequences. The script is one op per line: "i|l1|l2|…"
// interns the path (l1, l2, …) — "i" alone is the root's empty path
// and "i|" the path of one empty label — and "aP|l" adds child l under
// node P mod Len(). Labels come from the fuzzer, so they may be empty
// or hold the Key separator. After every script: the same IDs,
// parents, depths, labels and Keys; each node's children in ascending
// ID order; each level in ascending ID order; Lookup of every Key and
// of the root's, and of none with an empty last component; Validate;
// and a checkpoint encode → decode that replays the same tree.
func FuzzTreeIntern(f *testing.F) {
	f.Add("i|a|b|c\ni|a|x\ni|d\na1|y\na1|b\ni|a|b|z\na9|w")
	f.Fuzz(func(t *testing.T, script string) {
		tr, m := hierarchy.New(), newTreeModel()
		for n, op := range strings.Split(script, "\n") {
			if n == 256 {
				break
			}
			switch {
			case strings.HasPrefix(op, "i"):
				var path []string
				if op != "i" {
					path = strings.Split(op, "|")[1:]
				}
				if got, want := tr.Intern(path), m.intern(path); got != want {
					t.Fatalf("op %d: Intern(%q) = %d, model %d", n, path, got, want)
				}
			case strings.HasPrefix(op, "a"):
				ps, label, _ := strings.Cut(op[1:], "|")
				p, _ := strconv.Atoi(ps)
				p = max(p, 0) % len(m.paths)
				path := append(slices.Clone(m.paths[p]), label)
				_, existed := m.id(path)
				want := m.intern(path)
				if got, added := tr.AddChild(p, label); got != want || added != (want >= 0 && !existed) {
					t.Fatalf("op %d: AddChild(%d, %q) = %d, %v; model %d (existed %v)", n, p, label, got, added, want, existed)
				}
			}
		}
		checkTree(t, tr, m)

		var buf bytes.Buffer
		if err := checkpoint.Write(&buf, &checkpoint.Snapshot{Tree: tr}); err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Read(&buf)
		if err != nil {
			t.Fatalf("checkpoint replay: %v", err)
		}
		checkTree(t, snap.Tree, m)
	})
}

// checkTree fails unless tr is exactly the model's tree.
func checkTree(t *testing.T, tr *hierarchy.Tree, m *treeModel) {
	t.Helper()
	if tr.Len() != len(m.paths) {
		t.Fatalf("tree has %d nodes, model %d", tr.Len(), len(m.paths))
	}
	var levels [][]int32
	children := make([][]int, len(m.paths))
	for id, path := range m.paths {
		d := len(path)
		k := hierarchy.KeyOf(path)
		if tr.Depth(id) != d || tr.Key(id) != k || tr.Lookup(k) != id {
			t.Fatalf("node %d: depth %d key %q (Lookup %d), model path %q", id, tr.Depth(id), tr.Key(id), tr.Lookup(k), path)
		}
		parent := -1
		if d > 0 {
			// An empty last component names no node.
			if got := tr.Lookup(k + "\x1f"); got != -1 {
				t.Fatalf("Lookup of %q with an empty component appended = %d", path, got)
			}
			parent, _ = m.id(path[:d-1])
			children[parent] = append(children[parent], id)
			if tr.Label(id) != path[d-1] || tr.Child(parent, path[d-1]) != id {
				t.Fatalf("node %d: label %q, model %q", id, tr.Label(id), path[d-1])
			}
		}
		if tr.Parent(id) != parent {
			t.Fatalf("node %d: parent %d, model %d", id, tr.Parent(id), parent)
		}
		if d == len(levels) {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], int32(id))
	}
	for id, want := range children {
		var got []int
		for c := tr.FirstChild(id); c >= 0; c = tr.NextSibling(c) {
			got = append(got, c)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("node %d: children %v, model %v", id, got, want)
		}
	}
	if tr.Height() != len(levels) {
		t.Fatalf("height %d, model %d", tr.Height(), len(levels))
	}
	for d, want := range levels {
		if !slices.Equal(tr.Level(d), want) {
			t.Fatalf("level %d: %v, model %v", d, tr.Level(d), want)
		}
	}
	if tr.Lookup("") != hierarchy.Root {
		t.Fatalf("Lookup of the root's Key = %d", tr.Lookup(""))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
