package algo

import (
	"math/rand"
	"strings"
	"testing"
)

// TestImportStateRefusals feeds ImportState one defect per refusal
// branch, each in a state that is otherwise a valid export, and
// requires an error naming the offending field: every exported
// per-node column one node short, then each check on the rest of the
// state. A state refused before the engine is touched (its instance,
// RefCovered or a column length) must leave the engine able to import
// a valid one.
func TestImportStateRefusals(t *testing.T) {
	cfg := Config{Theta: 6, WindowLen: 16, RefLevels: 1, Lambda: 2, Eta: 2}
	ada, err := NewADA(cfg)
	if err != nil {
		t.Fatal(err)
	}
	units := randomStream(rand.New(rand.NewSource(5)), 40)
	if _, err := initUnits(ada, units[:16]); err != nil {
		t.Fatal(err)
	}
	for _, u := range units[16:] {
		if _, err := stepUnit(ada, u); err != nil {
			t.Fatal(err)
		}
	}
	restored := cfg
	restored.Tree = ada.Tree()
	type refusal struct {
		name, field string
		edit        func(st *EngineState)
		untouched   bool
	}
	cases := []refusal{
		{"negative instance", "Instance", func(st *EngineState) { st.Instance = -1 }, true},
		{"RefCovered below 0", "RefCovered", func(st *EngineState) { st.RefCovered = -1 }, true},
		{"RefCovered past the tree", "RefCovered", func(st *EngineState) { st.RefCovered = ada.Tree().Len() + 1 }, true},
		{"series ID below 0", "Series", func(st *EngineState) { st.Series[0].ID = -1 }, false},
		{"series ID past the tree", "Series", func(st *EngineState) { st.Series[0].ID = ada.Tree().Len() }, false},
		{"duplicate series ID", "Series", func(st *EngineState) { st.Series[1].ID = st.Series[0].ID }, false},
		{"duplicate reference", "Refs", func(st *EngineState) { st.Refs[1].ID = st.Refs[0].ID }, false},
		{"references out of ID order", "Refs", func(st *EngineState) { st.Refs[0], st.Refs[1] = st.Refs[1], st.Refs[0] }, false},
		{"actual ring capacity", "Series.Actual", func(st *EngineState) { st.Series[0].Actual.Cap++ }, false},
		{"reference ring capacity", "Refs.Ring", func(st *EngineState) { st.Refs[0].Ring.Cap++ }, false},
		{"missing multi-scale state", "Multi", func(st *EngineState) { st.Series[0].Multi = nil }, false},
	}
	var c nodeCols
	for i, col := range c.flags(&EngineState{}) {
		cases = append(cases, refusal{"short " + col.name, col.name, func(st *EngineState) {
			flags, _ := st.Columns()
			*flags[i] = (*flags[i])[1:]
		}, true})
	}
	for i, col := range c.floats(&EngineState{}) {
		cases = append(cases, refusal{"short " + col.name, col.name, func(st *EngineState) {
			_, floats := st.Columns()
			*floats[i] = (*floats[i])[1:]
		}, true})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := ada.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Series) < 2 || len(st.Refs) < 2 {
				t.Fatalf("%d series, %d references: the workload no longer exercises every branch", len(st.Series), len(st.Refs))
			}
			tc.edit(st)
			fresh, err := NewADA(restored)
			if err != nil {
				t.Fatal(err)
			}
			_, err = fresh.ImportState(st)
			if err == nil {
				t.Fatal("ImportState accepted the state")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
			if !tc.untouched {
				return
			}
			valid, err := ada.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.ImportState(valid); err != nil {
				t.Fatalf("after the refusal, a valid state is refused: %v", err)
			}
		})
	}
	st, err := ada.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewADA(restored)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ImportState(st); err != nil {
		t.Fatalf("the unedited state is refused: %v", err)
	}
}
