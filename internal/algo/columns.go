package algo

import "fmt"

// nodeCols is ADA's per-node state: columns indexed by node ID that
// cover the whole tree, grown as it grows. A per-node flag is kept
// either as a slice or as an idSet, never both.
type nodeCols struct {
	state     []*nodeSeries // non-nil iff the node is in SHHH (plus the root)
	memberSet idSet         // the SHHH members
	// weight, rawA and ishh are zero/false outside closure.
	ishh   []bool
	weight []float64 // modified weight W_n of the current instance
	rawA   []float64 // raw aggregated weight A_n of the current instance
	// x is the split-rule statistic X_n rule reads: the raw weight in
	// the previous timeunit, the cumulative one or the smoothed one.
	// Under EWMARule only, x[id] is current through instance xAt[id],
	// and ewmaThrough applies the decay since when it is read. Uniform
	// keeps neither.
	rule SplitRule
	x    []float64
	xAt  []int
	// Marks of the current instance: the nodes flagged for the split
	// pass, and those that received a split series (for §V-B5 repair).
	splits   idSet
	gotSplit []bool
	refIdx   []int32 // position in the reference slices, -1 for none
}

// An exported column: its storage at (set instead, for a flag kept as
// an idSet) and the EngineState field out, called name.
type (
	flagCol struct {
		name    string
		set     *idSet
		at, out *[]bool
	}
	floatCol struct {
		name    string
		at, out *[]float64
	}
)

// flags and floats declare the exported columns, bound to st's fields,
// in the field order of a checkpoint's ENG. section: flags first.
// grow, ExportState, ImportState, the checkpoint codec (through
// EngineState.Columns) and the test oracle iterate them, so exporting
// another column is a line here and a field in EngineState. grow
// lists the columns that are not exported. Only the rule's statistic
// field is bound to storage, x; the others export zeros and load none.
func (c *nodeCols) flags(st *EngineState) [2]flagCol {
	return [...]flagCol{
		{"InSHHH", &c.memberSet, nil, &st.InSHHH},
		{"Ishh", nil, &c.ishh, &st.Ishh},
	}
}

func (c *nodeCols) floats(st *EngineState) [5]floatCol {
	return [...]floatCol{
		{"Weight", &c.weight, &st.Weight},
		{"RawA", &c.rawA, &st.RawA},
		{"PrevA", c.xOf(LastTimeUnit), &st.PrevA},
		{"CumA", c.xOf(LongTermHistory), &st.CumA},
		{"EwmaA", c.xOf(EWMARule), &st.EwmaA},
	}
}

// xOf returns x's storage if rule is the engine's, else nil.
func (c *nodeCols) xOf(rule SplitRule) *[]float64 {
	if c.rule != rule {
		return nil
	}
	return &c.x
}

// grow extends every held column to n nodes: the exported ones, then
// the rest, each with its fill for a new node (nil, false, 0, instance
// for xAt, -1 for refIdx).
func (c *nodeCols) grow(n, instance int) {
	if len(c.state) >= n {
		return
	}
	var st EngineState
	for _, col := range c.flags(&st) {
		if col.set != nil {
			col.set.grow(n)
		} else {
			extend(col.at, n, false)
		}
	}
	for _, col := range c.floats(&st) {
		if col.at != nil {
			extend(col.at, n, 0)
		}
	}
	extend(&c.state, n, nil)
	if c.rule == EWMARule {
		extend(&c.xAt, n, instance)
	}
	c.splits.grow(n)
	extend(&c.gotSplit, n, false)
	extend(&c.refIdx, n, -1)
}

func extend[T any](s *[]T, n int, fill T) {
	for len(*s) < n {
		*s = append(*s, fill)
	}
}

// export writes the first n nodes of every exported column to st.
func (c *nodeCols) export(st *EngineState, n int) {
	for _, col := range c.flags(st) {
		if col.set == nil {
			*col.out = append([]bool(nil), (*col.at)[:n]...)
			continue
		}
		*col.out = make([]bool, n)
		for _, id := range col.set.appendTo(nil, false) {
			(*col.out)[id] = true
		}
	}
	for _, col := range c.floats(st) {
		if col.at == nil {
			*col.out = make([]float64, n)
			continue
		}
		*col.out = append([]float64(nil), (*col.at)[:n]...)
	}
}

// covers refuses st unless every exported column covers n nodes,
// naming the first that does not.
func (c *nodeCols) covers(st *EngineState, n int) error {
	for _, col := range c.flags(st) {
		if len(*col.out) != n {
			return short(col.name, len(*col.out), n)
		}
	}
	for _, col := range c.floats(st) {
		if len(*col.out) != n {
			return short(col.name, len(*col.out), n)
		}
	}
	return nil
}

func short(name string, got, n int) error {
	return fmt.Errorf("algo: checkpoint column %s covers %d nodes, hierarchy has %d", name, got, n)
}

// load copies st's exported columns, which covers has checked, into c.
func (c *nodeCols) load(st *EngineState) {
	for _, col := range c.flags(st) {
		if col.set == nil {
			copy(*col.at, *col.out)
			continue
		}
		for id, in := range *col.out {
			if in {
				col.set.add(int32(id))
			}
		}
	}
	for _, col := range c.floats(st) {
		if col.at != nil {
			copy(*col.at, *col.out)
		}
	}
}

// Columns returns st's per-node arrays, the exported columns of ADA's
// per-node state, in the field order of a checkpoint's ENG. section:
// the flags, then the floats. The checkpoint codec writes and decodes
// the arrays through them.
func (st *EngineState) Columns() (flags []*[]bool, floats []*[]float64) {
	var c nodeCols
	for _, col := range c.flags(st) {
		flags = append(flags, col.out)
	}
	for _, col := range c.floats(st) {
		floats = append(floats, col.out)
	}
	return flags, floats
}
