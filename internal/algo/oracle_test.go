package algo

// The differential oracle for the sparse ADA step. oracleADA is the
// engine as it stood before the step was made sparse, kept verbatim:
// seven full-tree sweeps per instance, reference series in maps, the
// split-rule statistics updated eagerly on every node. It shares no
// step code with ADA, so agreement between the two is evidence about
// the closure/worklist logic and not about a shared helper.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"tiresias/internal/forecast"
	"tiresias/internal/hierarchy"
	"tiresias/internal/series"
	"tiresias/internal/shhh"
)

// oracleADA is the pre-sparse ADA engine; see the file comment.
type oracleADA struct {
	cfg      Config
	tree     *hierarchy.Tree
	instance int
	inited   bool

	// Per-node state: ADA's columns, grown and exported through their
	// declaration. The step logic keeps SHHH membership and the split
	// marks in the flag slices below instead of the declared sets — the
	// representation ADA had before it kept them as sets — and export
	// reads membership from inSHHH. It keeps every split-rule statistic
	// in its own columns below, as ADA did before it kept only its
	// rule's; the embedded columns hold none.
	nodeCols
	inSHHH  []bool
	tosplit []bool
	prevA   []float64 // raw weight in the previous timeunit
	cumA    []float64 // cumulative raw weight over all timeunits
	ewmaA   []float64 // exponentially smoothed raw weight (EWMARule only)

	// Touched-ID lists for tosplit/gotSplit, so each instance clears
	// only what the previous instance marked instead of memsetting
	// O(|tree|) flags.
	splitMark []int32
	gotMark   []int32

	// Reference series for nodes in the top h levels (§V-B5).
	refActual  map[int]*series.Ring
	refCovered int // tree size when reference coverage was last ensured

	// Reusable scratch and pools for the steady-state step.
	snap      StepState     // returned by snapshot, reused every instance
	members   []int32       // current SHHH member IDs, ascending
	freeNS    []*nodeSeries // pooled series holders (rings attached)
	freeRings []*series.Ring
	candBuf   []int32   // split candidates
	xsBuf     []float64 // split ratios
	valBuf    []float64 // Ring.ValuesInto scratch for model refits
}

func newOracleADA(cfg Config) (*oracleADA, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return &oracleADA{
		cfg:       cfg,
		tree:      cfg.Tree,
		refActual: make(map[int]*series.Ring),
	}, nil
}

// grow extends the per-node state slices to cover newly inserted
// nodes.
func (a *oracleADA) grow() {
	n := a.tree.Len()
	a.nodeCols.grow(n, a.instance)
	extend(&a.inSHHH, n, false)
	extend(&a.tosplit, n, false)
	extend(&a.prevA, n, 0)
	extend(&a.cumA, n, 0)
	extend(&a.ewmaA, n, 0)
}

// Init implements Engine: the first time instance performs the same
// work as STA (lines 2-5 of Fig. 5), seeding series and models for the
// initial SHHH set, the root, and the reference nodes.
func (a *oracleADA) Init(window []*DenseUnit) (*StepState, error) {
	if a.inited {
		return nil, errState
	}
	a.inited = true

	start := now()
	// The window's IDs are interned into the tree already; keep the
	// newest ℓ units.
	units := window
	if len(units) > a.cfg.WindowLen {
		units = units[len(units)-a.cfg.WindowLen:]
	}
	if len(units) == 0 {
		units = []*DenseUnit{{}}
	}
	a.grow()
	newest := units[len(units)-1]
	res := shhh.ComputeInto(a.tree, newest.IDs(), newest.Values(), a.cfg.Theta, nil)
	copy(a.weight, res.W)
	copy(a.rawA, res.A)
	copy(a.ishh, res.InSet)
	tUpdate := now().Sub(start)

	// Reconstruct series for the initial SHHH members plus the root
	// (the root always holds the residual series so that it can
	// re-enter SHHH without information loss).
	start = now()
	owners := append([]int32(nil), res.Set...)
	if !res.IsHH(hierarchy.Root) {
		owners = append(owners, hierarchy.Root)
	}
	hist := make(map[int32][]float64, len(owners))
	for _, n := range owners {
		hist[n] = make([]float64, 0, len(units))
	}
	var w []float64
	for _, u := range units {
		w = shhh.FrozenWeightsInto(a.tree, u.IDs(), u.Values(), res.InSet, w)
		for _, n := range owners {
			hist[n] = append(hist[n], w[n])
		}
	}
	for _, n := range owners {
		ts := hist[n]
		ns := a.newNodeSeries()
		ns.actual.SetValues(ts)
		ns.model = a.cfg.NewForecaster(nil, ts[:len(ts)-1])
		ns.forecast = ns.model.Forecast()
		if ns.multi != nil {
			for _, v := range ts {
				ns.multi.Update(v)
			}
		}
		// Advance the live model over the newest value so state is
		// "post-instance", matching Step's epilogue.
		ns.model.Update(ts[len(ts)-1])
		a.state[n] = ns
		a.inSHHH[n] = res.IsHH(int(n))
	}

	// Reference series for the top h levels (§V-B5, raw weights A_n)
	// and split-rule statistics, seeded in one pass over the window.
	for depth := 1; depth <= a.cfg.RefLevels; depth++ {
		for _, n := range a.tree.Level(depth) {
			a.refActual[int(n)] = series.NewRing(a.cfg.WindowLen)
		}
	}
	var agg []float64
	for _, u := range units {
		agg = shhh.AggregateInto(a.tree, u.IDs(), u.Values(), agg)
		for id, r := range a.refActual {
			r.Append(agg[id])
		}
		for id := range agg {
			a.observeRuleStats(id, agg[id])
		}
	}
	a.refCovered = a.tree.Len()
	tSeries := now().Sub(start)

	start = now()
	st := a.snapshot()
	st.Timings = StageTimings{
		UpdatingHierarchies: tUpdate,
		CreatingTimeSeries:  tSeries,
		DetectingAnomalies:  now().Sub(start),
	}
	return st, nil
}

func (a *oracleADA) newNodeSeries() *nodeSeries {
	ns := &nodeSeries{actual: series.NewRing(a.cfg.WindowLen)}
	if a.cfg.Eta > 1 {
		ms, err := series.NewMultiScale(a.cfg.Lambda, a.cfg.Eta, a.cfg.WindowLen)
		if err == nil {
			ns.multi = ms
		}
	}
	return ns
}

// getSeries returns a series holder with an empty ring and no forecast,
// reusing a pooled one when available.
func (a *oracleADA) getSeries() *nodeSeries {
	if n := len(a.freeNS); n > 0 {
		ns := a.freeNS[n-1]
		a.freeNS = a.freeNS[:n-1]
		ns.actual.Reset()
		ns.forecast = 0
		return ns
	}
	return &nodeSeries{actual: series.NewRing(a.cfg.WindowLen)}
}

// putSeries returns a discarded holder to the pool. The model and
// multi-scale state are dropped (their shapes vary), the ring is
// kept.
func (a *oracleADA) putSeries(ns *nodeSeries) {
	if ns == nil {
		return
	}
	ns.model = nil
	ns.multi = nil
	a.freeNS = append(a.freeNS, ns)
}

// getRing returns an empty ring of window capacity from the pool.
func (a *oracleADA) getRing() *series.Ring {
	if n := len(a.freeRings); n > 0 {
		r := a.freeRings[n-1]
		a.freeRings = a.freeRings[:n-1]
		r.Reset()
		return r
	}
	return series.NewRing(a.cfg.WindowLen)
}

// putRing pools a discarded ring.
func (a *oracleADA) putRing(r *series.Ring) {
	if r != nil && r.Cap() == a.cfg.WindowLen {
		a.freeRings = append(a.freeRings, r)
	}
}

// observeRuleStats updates X_n statistics with the node's raw weight
// for the elapsed timeunit; ewmaA only under the rule that reads it.
func (a *oracleADA) observeRuleStats(id int, rawA float64) {
	a.prevA[id] = rawA
	a.cumA[id] += rawA
	if a.cfg.Rule == EWMARule {
		a.ewmaA[id] = a.cfg.RuleAlpha*rawA + (1-a.cfg.RuleAlpha)*a.ewmaA[id]
	}
}

// ruleX returns the split-rule weight X_n for a node.
func (a *oracleADA) ruleX(id int) float64 {
	switch a.cfg.Rule {
	case Uniform:
		return 1
	case LastTimeUnit:
		return a.prevA[id]
	case LongTermHistory:
		return a.cumA[id]
	default: // EWMARule
		return a.ewmaA[id]
	}
}

// stepDense is the flat per-instance core. Every traversal is a full
// sweep over the tree's levels: bottom-up is deepest level first, top-
// down root first, ascending ID within a level either way; in the
// steady state (no tree growth, no membership change) it allocates
// nothing.
//
//tiresias:hotpath
func (a *oracleADA) stepDense(u *DenseUnit) (*StepState, error) {
	a.instance++

	// --- Initialization stage (lines 6-12). ---
	start := now()
	a.grow()
	t := a.tree
	for _, id := range a.splitMark {
		a.tosplit[id] = false
	}
	a.splitMark = a.splitMark[:0]
	for _, id := range a.gotMark {
		a.gotSplit[id] = false
	}
	a.gotMark = a.gotMark[:0]
	// Update-Ishh-and-Weight (Fig. 6), as a bottom-up sweep: W_n and
	// A_n of the current timeunit, with ishh ≡ W_n >= θ. Assignment
	// form: direct counts come from the dense unit in O(1), so no
	// per-instance clearing of the weight arrays is needed.
	theta := a.cfg.Theta
	for d := t.Height() - 1; d >= 0; d-- {
		for _, id32 := range t.Level(d) {
			id := int(id32)
			v := u.ValueAt(id)
			aw, w := v, v
			for c := t.FirstChild(id); c >= 0; c = t.NextSibling(c) {
				aw += a.rawA[c]
				if !a.ishh[c] {
					w += a.weight[c]
				}
			}
			a.rawA[id], a.weight[id] = aw, w
			a.ishh[id] = w >= theta
		}
	}
	tUpdate := now().Sub(start)

	// --- SHHH and time-series adaptation (lines 13-25). ---
	start = now()
	// Mark ancestors of newly heavy nodes for splitting (lines 13-17).
	for d := t.Height() - 1; d >= 0; d-- {
		for _, id32 := range t.Level(d) {
			id := int(id32)
			if (a.ishh[id] || a.tosplit[id]) && !a.inSHHH[id] {
				if p := t.Parent(id); p >= 0 {
					a.markSplit(p)
				}
			}
		}
	}
	// Top-down split pass (lines 18-20; the root is always eligible).
	for d := 0; d < t.Height(); d++ {
		for _, id32 := range t.Level(d) {
			id := int(id32)
			if a.tosplit[id] && (a.inSHHH[id] || id == hierarchy.Root) {
				a.split(id)
			}
		}
	}
	// Bottom-up merge pass (lines 21-23).
	for d := t.Height() - 1; d >= 0; d-- {
		for _, id32 := range t.Level(d) {
			id := int(id32)
			if a.inSHHH[id] && !a.ishh[id] {
				a.merge(id)
			}
		}
	}
	// Root membership (lines 24-25). The root keeps its residual
	// series either way.
	rootID := hierarchy.Root
	a.inSHHH[rootID] = a.ishh[rootID]
	if a.state[rootID] == nil {
		a.state[rootID] = a.freshSeries()
	}
	// Repair split-induced bias with reference series (§V-B5).
	if a.cfg.RefLevels > 0 {
		a.repairFromReferences()
	}
	// Append the new weights to every member's series (lines 26-29).
	for id := range a.state {
		if !a.inSHHH[id] && id != rootID {
			continue
		}
		ns := a.state[id]
		if ns == nil {
			// A heavy hitter that received no series through
			// split or merge (possible only with direct interior
			// counts); start a fresh one.
			ns = a.freshSeries()
			a.state[id] = ns
		}
		ns.forecast = ns.model.Forecast()
		ns.actual.Append(a.weight[id])
		ns.model.Update(a.weight[id])
		if ns.multi != nil {
			ns.multi.Update(a.weight[id])
		}
	}
	// Reference series and split-rule statistics.
	for id, r := range a.refActual {
		r.Append(a.rawA[id])
	}
	a.maintainRefCoverage()
	for id, v := range a.rawA {
		a.observeRuleStats(id, v)
	}
	tSeries := now().Sub(start)

	// --- Detection stage: forecasts were produced incrementally;
	// assembling the snapshot is the remaining work. ---
	start = now()
	st := a.snapshot()
	st.Timings = StageTimings{
		UpdatingHierarchies: tUpdate,
		CreatingTimeSeries:  tSeries,
		DetectingAnomalies:  now().Sub(start),
	}
	return st, nil
}

// markSplit flags a node for the split pass, recording it for the
// next instance's O(touched) clear.
func (a *oracleADA) markSplit(id int) {
	if !a.tosplit[id] {
		a.tosplit[id] = true
		a.splitMark = append(a.splitMark, int32(id))
	}
}

// markGotSplit records that a node received a split series this
// instance.
func (a *oracleADA) markGotSplit(id int) {
	if !a.gotSplit[id] {
		a.gotSplit[id] = true
		a.gotMark = append(a.gotMark, int32(id))
	}
}

// freshSeries creates an empty series whose model is seeded from
// nothing (EWMA-like behaviour until history accumulates).
func (a *oracleADA) freshSeries() *nodeSeries {
	ns := a.getSeries()
	ns.model = a.cfg.NewForecaster(nil, nil)
	if a.cfg.Eta > 1 {
		ms, err := series.NewMultiScale(a.cfg.Lambda, a.cfg.Eta, a.cfg.WindowLen)
		if err == nil {
			ns.multi = ms
		}
	}
	return ns
}

// scaledCopy builds a child series holder carrying ratio times the
// parent's state, drawing the ring from the pool; the model and the
// multi-scale state are new deep copies, as they were before the
// engine recycled them. The held forecast is scaled with the rest.
func (a *oracleADA) scaledCopy(src *nodeSeries, ratio float64) *nodeSeries {
	child := a.getSeries()
	_ = child.actual.CopyFrom(src.actual)
	child.actual.Scale(ratio)
	child.forecast = ratio * src.forecast
	child.model = forecast.Clone(src.model)
	child.model.Scale(ratio)
	if src.multi != nil {
		child.multi, _ = series.RestoreMultiScale(src.multi.State())
		child.multi.Scale(ratio)
	}
	return child
}

// split implements SPLIT(n) (Fig. 7): distribute n's series to its
// non-member children with scale ratios from the split rule. Children
// whose ratio is zero and whose subtree holds no heavy hitter are
// skipped (they would receive an all-zero series and immediately merge
// back); their weight stays accounted at n.
func (a *oracleADA) split(id int) {
	cands := a.candBuf[:0]
	eligible := false
	for c := a.tree.FirstChild(id); c >= 0; c = a.tree.NextSibling(c) {
		if a.inSHHH[c] {
			continue
		}
		cands = append(cands, int32(c))
		if a.weight[c] >= a.cfg.Theta || a.tosplit[c] {
			eligible = true
		}
	}
	a.candBuf = cands[:0]
	if !eligible || len(cands) == 0 {
		return
	}
	var sumX float64
	xs := a.xsBuf[:0]
	for _, c := range cands {
		x := a.ruleX(int(c))
		if x < 0 {
			x = 0
		}
		xs = append(xs, x)
		sumX += x
	}
	a.xsBuf = xs[:0]
	if sumX == 0 {
		for i := range xs {
			xs[i] = 1
		}
		sumX = float64(len(xs))
	}
	parent := a.state[id]
	if parent == nil {
		parent = a.freshSeries()
	}
	skippedLight := 0
	for i, c32 := range cands {
		c := int(c32)
		ratio := xs[i] / sumX
		needsSeries := a.weight[c] >= a.cfg.Theta || a.tosplit[c]
		if ratio == 0 && !needsSeries {
			// In the paper this child would receive a zero-scaled
			// series and immediately merge back into n; short-
			// circuit that round trip below.
			skippedLight++
			continue
		}
		a.state[c] = a.scaledCopy(parent, ratio)
		a.inSHHH[c] = true
		a.markGotSplit(c)
	}
	a.state[id] = nil
	a.inSHHH[id] = false
	if skippedLight > 0 {
		// Emulate the skipped children's merge-back: n stays a
		// member holding the zero residual series (the sum of the
		// zero-scaled series the skipped children would have
		// returned). If n is light it will merge upward normally.
		a.state[id] = a.scaledCopy(parent, 0)
		a.inSHHH[id] = true
	} else if id == hierarchy.Root {
		// The root must keep a (now empty) residual series holder.
		a.state[id] = a.freshSeries()
	}
	a.putSeries(parent)
}

// merge implements MERGE(n) (Fig. 8): fold the series of n — and of
// any sibling members that are also below threshold — into the parent.
func (a *oracleADA) merge(id int) {
	if a.ishh[id] {
		return
	}
	pid := a.tree.Parent(id)
	if pid < 0 {
		return // root handled by the membership rule
	}
	dst := a.state[pid]
	if dst == nil {
		dst = a.freshSeries()
		a.state[pid] = dst
	}
	for c := a.tree.FirstChild(pid); c >= 0; c = a.tree.NextSibling(c) {
		if !a.inSHHH[c] || a.ishh[c] {
			continue
		}
		src := a.state[c]
		if src != nil {
			// Series and model addition are exact thanks to
			// Holt-Winters linearity (Lemma 2).
			_ = dst.actual.AddRing(src.actual)
			dst.forecast += src.forecast
			if forecast.Compatible(dst.model, src.model) {
				_ = dst.model.Add(src.model)
			} else {
				// Shape mismatch (fresh EWMA vs seasoned HW):
				// refit from the merged actual series.
				a.valBuf = dst.actual.ValuesInto(a.valBuf)
				dst.model = a.cfg.NewForecaster(nil, a.valBuf)
			}
			if dst.multi != nil && src.multi != nil {
				_ = dst.multi.Add(src.multi)
			}
			a.putSeries(src)
		}
		a.state[c] = nil
		a.inSHHH[c] = false
	}
	a.inSHHH[pid] = true
}

// repairFromReferences implements §V-B5: for every node that received
// a (possibly biased) split series this instance and has a reference
// series, replace its series with T_REF − Σ series of its heavy-hitter
// descendants. gotMark lists the split receivers in non-decreasing
// depth, so — as in the ID-order walk this replaces — an ancestor is
// repaired before any of its repaired descendants.
func (a *oracleADA) repairFromReferences() {
	for _, id32 := range a.gotMark {
		id := int(id32)
		if !a.inSHHH[id] {
			continue
		}
		ref, ok := a.refActual[id]
		if !ok {
			continue
		}
		ns := a.state[id]
		if ns == nil {
			continue
		}
		repaired := a.getRing()
		_ = repaired.CopyFrom(ref)
		a.subtractDescendants(id, repaired)
		a.putRing(ns.actual)
		ns.actual = repaired
		a.valBuf = repaired.ValuesInto(a.valBuf)
		vals := a.valBuf
		if len(vals) > 1 {
			ns.model = a.cfg.NewForecaster(nil, vals[:len(vals)-1])
			ns.forecast = ns.model.Forecast()
			ns.model.Update(vals[len(vals)-1])
		}
	}
}

// subtractDescendants subtracts from r the actual series of every
// heavy-hitter descendant of id (excluding id itself), stopping
// descent at each member (deeper members are already discounted from
// it), in recursive preorder.
func (a *oracleADA) subtractDescendants(id int, r *series.Ring) {
	for c := a.tree.FirstChild(id); c >= 0; c = a.tree.NextSibling(c) {
		if a.inSHHH[c] && a.state[c] != nil {
			_ = r.SubRing(a.state[c].actual)
			continue
		}
		a.subtractDescendants(c, r)
	}
}

// maintainRefCoverage creates reference series for nodes that newly
// appeared in the top h levels. It is a no-op (without a single map
// lookup) while the tree has not grown.
func (a *oracleADA) maintainRefCoverage() {
	if a.refCovered == a.tree.Len() {
		return
	}
	for depth := 1; depth <= a.cfg.RefLevels; depth++ {
		for _, n32 := range a.tree.Level(depth) {
			n := int(n32)
			if _, ok := a.refActual[n]; ok {
				continue
			}
			r := series.NewRing(a.cfg.WindowLen)
			r.Append(a.rawA[n])
			a.refActual[n] = r
		}
	}
	a.refCovered = a.tree.Len()
}

// snapshot assembles the StepState from current membership, reusing
// the engine-owned state and refreshing the member-ID list. Nodes are
// visited in ID order, so HeavyHitters needs no sort.
func (a *oracleADA) snapshot() *StepState {
	st := &a.snap
	st.Instance = a.instance
	st.HeavyHitters = st.HeavyHitters[:0]
	a.members = a.members[:0]
	for id := 0; id < a.tree.Len(); id++ {
		if !a.inSHHH[id] {
			continue
		}
		a.members = append(a.members, int32(id))
		ns := a.state[id]
		var actual, fc float64
		if ns != nil {
			if v, ok := ns.actual.Last(); ok {
				actual = v
			}
			fc = ns.forecast
		}
		st.HeavyHitters = append(st.HeavyHitters, HeavyHitter{ID: id, Key: a.tree.Key(id), Actual: actual, Forecast: fc})
	}
	return st
}

// SeriesOf implements Engine.
func (a *oracleADA) SeriesOf(id int) []float64 {
	if id < 0 || id >= len(a.state) || a.state[id] == nil {
		return nil
	}
	return a.state[id].actual.Values()
}

// ExportState implements Engine. The returned state deep-copies every
// ring and model, so it stays valid while the engine keeps stepping.
func (a *oracleADA) ExportState() (*EngineState, error) {
	if !a.inited {
		return nil, errState
	}
	// Records interned since the last step may have grown the tree past
	// the per-node arrays; grow now so the exported arrays line up with
	// the exported hierarchy.
	a.grow()
	n := a.tree.Len()
	a.memberSet.appendTo(nil, true)
	for id, in := range a.inSHHH {
		if in {
			a.memberSet.add(int32(id))
		}
	}
	st := &EngineState{Instance: a.instance, RefCovered: a.refCovered}
	a.export(st, n) // every statistic field all zero
	// The format carries only the rule's statistic.
	for _, f := range []struct {
		rule SplitRule
		out  *[]float64
		col  []float64
	}{{LastTimeUnit, &st.PrevA, a.prevA}, {LongTermHistory, &st.CumA, a.cumA}, {EWMARule, &st.EwmaA, a.ewmaA}} {
		if f.rule == a.cfg.Rule {
			*f.out = append([]float64(nil), f.col[:n]...)
		}
	}
	for id, ns := range a.state {
		if ns == nil {
			continue
		}
		model, err := forecast.Capture(ns.model)
		if err != nil {
			return nil, fmt.Errorf("algo: node %d: %w", id, err)
		}
		ss := SeriesState{
			ID:       id,
			Actual:   captureRing(ns.actual),
			Forecast: ns.forecast,
			Model:    model,
		}
		if ns.multi != nil {
			ms := ns.multi.State()
			ss.Multi = &ms
		}
		st.Series = append(st.Series, ss)
	}
	ids := make([]int, 0, len(a.refActual))
	for id := range a.refActual {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st.Refs = append(st.Refs, RefState{ID: id, Ring: captureRing(a.refActual[id])})
	}
	return st, nil
}

// --- The differential test. ---

// oracleWorld is one generated case: a random hierarchy shared by the
// engine under test and the oracle, and the leaf universe units are
// drawn from.
type oracleWorld struct {
	rng    *rand.Rand
	tree   *hierarchy.Tree
	leaves []int
	unit   DenseUnit
}

// growLeaves interns count random paths of depth 2..4 under a
// top-level fan of tops branches.
func (w *oracleWorld) growLeaves(count, tops int) {
	for i := 0; i < count; i++ {
		depth := 2 + w.rng.Intn(3)
		path := make([]string, depth)
		path[0] = fmt.Sprintf("t%d", w.rng.Intn(tops))
		for d := 1; d < depth; d++ {
			path[d] = fmt.Sprintf("n%d", w.rng.Intn(3+4*d))
		}
		before := w.tree.Len()
		id := w.tree.Intern(path)
		if w.tree.Len() > before {
			w.leaves = append(w.leaves, id)
		}
	}
}

// count draws a non-integer weight, so a different summation order
// shows in the low bits.
func (w *oracleWorld) count(max int) float64 {
	return float64(1+w.rng.Intn(max)) / 7
}

// sparse touches k random leaves lightly; dense touches every leaf;
// burst puts several θ on one leaf on top of a sparse unit.
func (w *oracleWorld) sparse(k int) {
	w.unit.Reset()
	for i := 0; i < k; i++ {
		w.unit.Add(w.leaves[w.rng.Intn(len(w.leaves))], w.count(40))
	}
}

func (w *oracleWorld) dense() {
	w.unit.Reset()
	for _, id := range w.leaves {
		w.unit.Add(id, w.count(12))
	}
}

func (w *oracleWorld) burst(leaf int, theta float64) {
	w.sparse(4)
	w.unit.Add(leaf, theta*(2+w.rng.Float64()*3))
}

// sameFloat is bit equality, except that two values under the
// documented flush threshold count as equal: the oracle's eager
// split-rule EWMA decays into (and sticks in) the range the engine
// flushes to zero.
func sameFloat(a, b float64) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	return forecast.Flush(a) == 0 && forecast.Flush(b) == 0
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameModel(a, b forecast.State) bool {
	if a.Kind != b.Kind || len(a.Ints) != len(b.Ints) {
		return false
	}
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			return false
		}
	}
	return sameFloats(a.Floats, b.Floats)
}

// diffStep compares the step outcome, whose Forecast is each member's
// held forecast, and every member's retained series, bit for bit.
func diffStep(got *StepState, eng *ADA, want *StepState, ora *oracleADA) error {
	if got.Instance != want.Instance {
		return fmt.Errorf("instance %d, oracle %d", got.Instance, want.Instance)
	}
	if len(got.HeavyHitters) != len(want.HeavyHitters) {
		return fmt.Errorf("|SHHH| = %d, oracle %d", len(got.HeavyHitters), len(want.HeavyHitters))
	}
	for i, g := range got.HeavyHitters {
		o := want.HeavyHitters[i]
		if g.ID != o.ID || g.Key != o.Key {
			return fmt.Errorf("member %d is %d %v, oracle %d %v", i, g.ID, g.Key, o.ID, o.Key)
		}
		if math.Float64bits(g.Actual) != math.Float64bits(o.Actual) || math.Float64bits(g.Forecast) != math.Float64bits(o.Forecast) {
			return fmt.Errorf("%v: (actual, forecast) = (%v, %v), oracle (%v, %v)", g.Key, g.Actual, g.Forecast, o.Actual, o.Forecast)
		}
		if !sameFloats(eng.SeriesOf(g.ID), ora.SeriesOf(g.ID)) {
			return fmt.Errorf("%v: actual series differs from oracle", g.Key)
		}
	}
	return nil
}

// diffColumn compares one exported per-node column with the oracle's.
func diffColumn[T any](name string, g, o []T, same func(x, y T) bool) error {
	if len(g) != len(o) {
		return fmt.Errorf("%s covers %d nodes, oracle %d", name, len(g), len(o))
	}
	for id := range g {
		if !same(g[id], o[id]) {
			return fmt.Errorf("%s[%d] = %v, oracle %v", name, id, g[id], o[id])
		}
	}
	return nil
}

// diffExport compares the two engines' full exported state.
func diffExport(eng *ADA, ora *oracleADA) error {
	g, err := eng.ExportState()
	if err != nil {
		return err
	}
	o, err := ora.ExportState()
	if err != nil {
		return err
	}
	if g.Instance != o.Instance || g.RefCovered != o.RefCovered {
		return fmt.Errorf("instance/refCovered %d/%d, oracle %d/%d", g.Instance, g.RefCovered, o.Instance, o.RefCovered)
	}
	var c nodeCols
	ofl, ofs := o.Columns()
	for i, col := range c.flags(g) {
		if err := diffColumn(col.name, *col.out, *ofl[i], func(x, y bool) bool { return x == y }); err != nil {
			return err
		}
	}
	for i, col := range c.floats(g) {
		if err := diffColumn(col.name, *col.out, *ofs[i], sameFloat); err != nil {
			return err
		}
	}
	if len(g.Series) != len(o.Series) {
		return fmt.Errorf("%d series, oracle %d", len(g.Series), len(o.Series))
	}
	for i, gs := range g.Series {
		os := o.Series[i]
		if gs.ID != os.ID || !sameFloats(gs.Actual.Values, os.Actual.Values) || math.Float64bits(gs.Forecast) != math.Float64bits(os.Forecast) || !sameModel(gs.Model, os.Model) {
			return fmt.Errorf("series %d (node %d, oracle node %d) differs", i, gs.ID, os.ID)
		}
		if (gs.Multi == nil) != (os.Multi == nil) || (gs.Multi != nil && fmt.Sprint(*gs.Multi) != fmt.Sprint(*os.Multi)) {
			return fmt.Errorf("series of node %d: multi-scale state differs", gs.ID)
		}
	}
	if len(g.Refs) != len(o.Refs) {
		return fmt.Errorf("%d reference series, oracle %d", len(g.Refs), len(o.Refs))
	}
	for i, gr := range g.Refs {
		or := o.Refs[i]
		if gr.ID != or.ID || !sameFloats(gr.Ring.Values, or.Ring.Values) {
			return fmt.Errorf("reference %d (node %d, oracle node %d) differs", i, gr.ID, or.ID)
		}
	}
	return nil
}

// TestSparseStepMatchesFullSweepOracle drives the sparse engine and the
// retained full-sweep engine over the same generated hierarchies and
// unit streams — sparse units, fully dense units, tree growth
// mid-stream, bursts that force a split and the merge back, stretches
// of silence — and requires identical output after every unit and
// identical exported state throughout, across every split rule, with
// and without reference levels and coarse timescales, and for every
// forecaster factory. The oracle builds a new model wherever the engine
// recycles one, so agreement also pins the engine's in-place copies and
// refits to fresh construction; the dual-season factory's long period
// is half the window, so refits of a full window and of one unit less
// alternate between two seasonal shapes, and the runs of both new
// factories warm up on fewer units than the window, so early refits
// see part-filled rings. Each run snapshots the engine at a random unit
// and continues on a restored copy.
func TestSparseStepMatchesFullSweepOracle(t *testing.T) {
	const theta = 10.0
	factories := []struct {
		suffix string // of the subtest name; the Holt-Winters runs came first and keep theirs bare
		f      ForecasterFactory
		warm   int // units before the first step; fewer than the window leaves early rings part-filled
	}{
		{"", HoltWintersFactory(0.4, 0.05, 0.3, 4), 16},
		{"/ewma", EWMAFactory(0.5), 10},
		{"/dual", DualSeasonFactory(0.4, 0.05, 0.3, 0.6, 4, 8), 12},
	}
	run := 0
	for _, fc := range factories {
		for _, rule := range []SplitRule{Uniform, LastTimeUnit, LongTermHistory, EWMARule} {
			for _, refLevels := range []int{0, 2} {
				for _, eta := range []int{1, 2} {
					run++
					seed := int64(1000 + run)
					// One run per rule is on a tree past 10k nodes, where
					// an 8-leaf unit touches a thousandth of it.
					leaves, units := 300, 260
					if refLevels == 2 && eta == 1 {
						leaves, units = 9000, 90
					}
					name := fmt.Sprintf("%s/ref%d/eta%d/seed%d%s", rule, refLevels, eta, seed, fc.suffix)
					t.Run(name, func(t *testing.T) {
						w := &oracleWorld{rng: rand.New(rand.NewSource(seed)), tree: hierarchy.New()}
						w.growLeaves(leaves, 5)
						cfg := Config{
							Theta:         theta,
							WindowLen:     16,
							Rule:          rule,
							RuleAlpha:     []float64{0.4, 0.9}[run%2],
							RefLevels:     refLevels,
							NewForecaster: fc.f,
							Lambda:        2,
							Eta:           eta,
							Tree:          w.tree,
						}
						eng, err := NewADA(cfg)
						if err != nil {
							t.Fatal(err)
						}
						ora, err := newOracleADA(cfg)
						if err != nil {
							t.Fatal(err)
						}
						window := make([]*DenseUnit, fc.warm)
						for i := range window {
							w.sparse(12)
							window[i] = w.unit.Pairs()
						}
						got, err := eng.Init(window)
						if err != nil {
							t.Fatal(err)
						}
						want, err := ora.Init(window)
						if err != nil {
							t.Fatal(err)
						}
						if err := diffStep(got, eng, want, ora); err != nil {
							t.Fatalf("init: %v", err)
						}
						if err := diffExport(eng, ora); err != nil {
							t.Fatalf("init: %v", err)
						}

						restoreAt := 20 + w.rng.Intn(units-40)
						hot := w.leaves[w.rng.Intn(len(w.leaves))]
						for step := 1; step <= units; step++ {
							switch phase := step % 40; {
							case phase == 7 || phase == 8:
								w.burst(hot, theta) // split down to the leaf …
							case phase == 9:
								w.unit.Reset() // … and merge all the way back
								hot = w.leaves[w.rng.Intn(len(w.leaves))]
							case phase == 15:
								w.dense()
							case phase == 23:
								// New categories: under existing branches and as
								// new top-level ones (reference coverage grows).
								w.growLeaves(20, 5+step/40)
								w.sparse(8)
								w.unit.Add(w.leaves[len(w.leaves)-1], 2*theta)
							case phase >= 30 && phase < 36 && step > units/2:
								w.unit.Reset() // silence: statistics and models only decay
							default:
								w.sparse(8)
							}
							got, err := eng.StepDense(&w.unit)
							if err != nil {
								t.Fatal(err)
							}
							want, err := ora.stepDense(&w.unit)
							if err != nil {
								t.Fatal(err)
							}
							if err := diffStep(got, eng, want, ora); err != nil {
								t.Fatalf("step %d: %v", step, err)
							}
							if step%9 == 0 || step == units {
								if err := diffExport(eng, ora); err != nil {
									t.Fatalf("step %d: %v", step, err)
								}
							}
							if step == restoreAt {
								st, err := eng.ExportState()
								if err != nil {
									t.Fatal(err)
								}
								eng, err = NewADA(cfg)
								if err != nil {
									t.Fatal(err)
								}
								got, err := eng.ImportState(st)
								if err != nil {
									t.Fatal(err)
								}
								if err := diffStep(got, eng, want, ora); err != nil {
									t.Fatalf("restored at step %d: %v", step, err)
								}
							}
						}
						if err := w.tree.Validate(); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}
