package algo

import (
	"tiresias/internal/forecast"
	"tiresias/internal/hierarchy"
	"tiresias/internal/series"
	"tiresias/internal/shhh"
)

// nodeSeries is the per-heavy-hitter state: the actual series
// (n.actual in Fig. 5), the forecast of its newest value, the live
// forecasting model and, when Eta > 1, the coarser timescales of §V-B6.
// Holders are recycled whole through the engine's pool, so every
// field's memory is reused in place.
type nodeSeries struct {
	actual *series.Ring
	// forecast is the model's forecast of the newest actual value, made
	// before the model observed it: F[n,1] of Definition 4, the only
	// sample of Fig. 5's n.forecast that detection reads.
	forecast float64
	model    forecast.Linear
	// spare is the model the holder held before its model last changed
	// shape; it carries no state. A holder alternates between shapes —
	// a fresh EWMA, then a seasoned refit — and with both at hand it
	// writes either in place.
	spare forecast.Linear
	multi *series.MultiScale
}

// holdShape makes model whichever of the holder's two models has
// like's shape, overwriting it with like's state, and reports whether
// either had. It never allocates.
//
//tiresias:hotpath
func (ns *nodeSeries) holdShape(like forecast.Linear) bool {
	if ns.model != nil && ns.model.CopyFrom(like) == nil {
		return true
	}
	if ns.spare != nil && ns.spare.CopyFrom(like) == nil {
		ns.model, ns.spare = ns.spare, ns.model
		return true
	}
	return false
}

// copyModel sets model to a copy of src's state, in place when either
// of the holder's models has src's shape. Otherwise (a pool miss) it
// clones src, and the model it displaces becomes the spare.
//
//tiresias:hotpath
func (ns *nodeSeries) copyModel(src forecast.Linear) {
	if !ns.holdShape(src) {
		ns.model, ns.spare = forecast.Clone(src), ns.model
	}
}

// ADA is the paper's adaptive engine (§V-B, Figs. 5–8). It maintains a
// single hierarchy whose heavy-hitter nodes carry time series, and at
// each time instance moves those series to the new heavy-hitter
// positions with SPLIT (top-down) and MERGE (bottom-up) instead of
// reconstructing them.
//
// The per-instance hot path is flat and sparse. A node outside the
// ancestor closure of the timeunit's touched IDs has zero raw and
// modified weight and cannot be heavy, so the step visits only that
// closure, the current SHHH members and the reference nodes, each in
// level order: O(|closure(touched)| + |SHHH| + |refs|) per instance,
// however many categories the stream has ever seen. Work proportional
// to the tree remains only where it is (de)serialized: Init,
// ExportState and ImportState. Growth costs O(new nodes).
//
// All scratch — including the returned StepState — is reused across
// instances, and series holders are a slab: a holder leaves the pool
// with the ring, forecasting model and multi-scale state it last
// held, and SPLIT's scaled copies, MERGE's refits, fresh series and
// the §V-B5 reference repair all write into that memory in place. So
// once the pool and the models in it have reached the shapes a
// stream's split/merge pattern needs, a StepDense performs zero
// allocations, splits and merges included. Allocations remain on tree
// growth and on pool misses: an empty pool, or a holder with no model
// of the shape to be written.
type ADA struct {
	cfg      Config
	tree     *hierarchy.Tree
	instance int
	inited   bool

	// The per-node state, declared in columns.go.
	nodeCols

	// closure is the ancestor closure of the current instance's touched
	// IDs in level order (ascending ID within a level); prevClosure is
	// the previous instance's, kept for one step to zero what went
	// quiet.
	closure     []int32
	prevClosure []int32

	// gotMark lists the nodes flagged in gotSplit, for the next
	// instance to clear. It is in marking order, which is non-decreasing
	// depth: repairFromReferences relies on that, so unlike the split
	// marks it is not an ID-ordered set.
	gotMark []int32

	// Reference series for nodes in the top h levels (§V-B5), as
	// parallel slices in ascending node-ID order; refIdx maps a node ID
	// to its position.
	refIDs     []int32
	refActual  []*series.Ring
	refCovered int // tree size when reference coverage was last ensured

	// members is memberSet's ascending listing as of the last snapshot.
	members []int32
	// work holds one set of node IDs per depth, so that draining it
	// shallow to deep lists nodes in level order (ascending ID within a
	// level): it sorts the closure and queues the merge pass. Empty
	// between passes.
	work []idSet

	// Reusable scratch and pools for the steady-state step.
	snap     StepState     // returned by snapshot, reused every instance
	freeNS   []*nodeSeries // pooled series holders: the forecaster slab
	candBuf  []int32       // split candidates; drains the split marks
	xsBuf    []float64     // split ratios
	valBuf   []float64     // Ring.ValuesInto scratch for model refits
	stackBuf []int32       // DFS stack for subtractDescendants

	// fresh is the factory's model for an empty history, the template
	// every fresh series copies. lastFit is the model the factory
	// returned at the latest refit: refits mostly see full windows and
	// so mostly want its shape, which a refit looks for among the
	// holder's two models before calling the factory.
	fresh   forecast.Linear
	lastFit forecast.Linear
}

var _ Engine = (*ADA)(nil)

// NewADA constructs an ADA engine.
func NewADA(cfg Config) (*ADA, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	tree := cfg.Tree
	if tree == nil {
		tree = hierarchy.New()
	}
	return &ADA{cfg: cfg, tree: tree, nodeCols: nodeCols{rule: cfg.Rule}, fresh: cfg.NewForecaster(nil, nil)}, nil
}

// Name implements Engine.
func (a *ADA) Name() string { return "ADA" }

// Tree implements Engine.
func (a *ADA) Tree() *hierarchy.Tree { return a.tree }

// grow extends the per-node state to cover newly inserted nodes.
func (a *ADA) grow() {
	n := a.tree.Len()
	a.nodeCols.grow(n, a.instance)
	for len(a.work) < a.tree.Height() {
		a.work = append(a.work, idSet{})
	}
	for d := range a.work {
		a.work[d].grow(n)
	}
}

// Init implements Engine: the first time instance performs the same
// work as STA (lines 2-5 of Fig. 5), seeding series and models for the
// initial SHHH set and the root, and series alone for the reference
// nodes. The window's IDs must be interned into the engine's tree;
// Init reads the units' (ID, count) pairs and keeps none of them.
func (a *ADA) Init(window []*DenseUnit) (*StepState, error) {
	if a.inited {
		return nil, errState
	}
	a.inited = true

	start := now()
	units := window
	if len(units) > a.cfg.WindowLen {
		units = units[len(units)-a.cfg.WindowLen:]
	}
	if len(units) == 0 {
		units = []*DenseUnit{{}}
	}
	a.grow()
	newest := units[len(units)-1]
	res := shhh.ComputeInto(a.tree, newest.ids, newest.vals, a.cfg.Theta, nil)
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
	for _, id := range owners {
		hist[id] = make([]float64, 0, len(units))
	}
	var w []float64
	for _, u := range units {
		w = shhh.FrozenWeightsInto(a.tree, u.ids, u.vals, res.InSet, w)
		for _, id := range owners {
			hist[id] = append(hist[id], w[id])
		}
	}
	for _, id := range owners {
		ts := hist[id]
		ns := a.getSeries()
		ns.actual.SetValues(ts)
		a.refit(ns, ts)
		if ns.multi != nil {
			for _, v := range ts {
				ns.multi.Update(v)
			}
		}
		a.state[id] = ns
		a.setMember(int(id), res.IsHH(int(id)))
	}

	// Reference series for the top h levels (§V-B5, raw weights A_n)
	// and the split-rule statistic, seeded in one pass over the window.
	a.coverRefs(false)
	var agg []float64
	for _, u := range units {
		agg = shhh.AggregateInto(a.tree, u.ids, u.vals, agg)
		for i, id := range a.refIDs {
			a.refActual[i].Append(agg[id])
		}
		for id, v := range agg {
			a.observeX(id, v)
		}
	}
	a.indexState()
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

// getSeries returns a series holder with an empty ring. A pooled holder
// keeps the model and multi-scale state it last held, for the caller
// to overwrite in place; a new one (a pool miss) has no model yet and,
// when Eta > 1, an empty multi-scale series of the engine's shape.
//
//tiresias:hotpath
func (a *ADA) getSeries() *nodeSeries {
	if n := len(a.freeNS); n > 0 {
		ns := a.freeNS[n-1]
		a.freeNS = a.freeNS[:n-1]
		ns.actual.Reset()
		return ns
	}
	return a.newSeries()
}

// newSeries allocates a series holder for getSeries' pool miss.
func (a *ADA) newSeries() *nodeSeries {
	ns := &nodeSeries{actual: series.NewRing(a.cfg.WindowLen)}
	if a.cfg.Eta > 1 {
		// normalize guarantees Lambda >= 2 here, so this cannot fail.
		ns.multi, _ = series.NewMultiScale(a.cfg.Lambda, a.cfg.Eta, a.cfg.WindowLen)
	}
	return ns
}

// putSeries returns a discarded holder to the pool, whole: its ring,
// model and multi-scale state are the slab the next getSeries reuses.
// The pool never outgrows the peak number of live series, since
// holders are only created when it is empty.
//
//tiresias:hotpath
func (a *ADA) putSeries(ns *nodeSeries) {
	if ns == nil {
		return
	}
	a.freeNS = append(a.freeNS, ns)
}

// fitModel sets ns's model to the factory's model for history, built
// in place in whichever of the holder's two models has the shape of
// the latest fit (the factory's first guess) or, failing that, in its
// current model. When the factory allocates instead, the displaced
// model becomes the spare.
//
//tiresias:hotpath
func (a *ADA) fitModel(ns *nodeSeries, history []float64) {
	if a.lastFit != nil {
		ns.holdShape(a.lastFit)
	}
	m := a.cfg.NewForecaster(ns.model, history)
	if m != ns.model {
		ns.spare = ns.model
	}
	ns.model, a.lastFit = m, m
}

// refit re-seeds ns's model from vals (oldest first, non-empty): the
// factory fits it to all but the newest value, the holder keeps its
// forecast of that value, and the model then observes it, so its state
// is "post-instance" as after a step. Only an EWMA is fitted as if the
// series had been observed from its start: HoltWinters.Reseed and
// DualSeason.Reseed seed from the last 2υ samples (υ the longest
// period) and ignore the rest (ROADMAP item 16(b)).
//
//tiresias:hotpath
func (a *ADA) refit(ns *nodeSeries, vals []float64) {
	last := len(vals) - 1
	a.fitModel(ns, vals[:last])
	ns.forecast = ns.model.Forecast()
	ns.model.Update(vals[last])
}

// observeX folds a timeunit of raw weight v into the node's X_n. A
// Uniform engine keeps no X_n.
//
//tiresias:hotpath
func (a *ADA) observeX(id int, v float64) {
	switch a.cfg.Rule {
	case LastTimeUnit:
		a.x[id] = v
	case LongTermHistory:
		a.x[id] += v
	case EWMARule:
		a.x[id] = forecast.Flush(a.cfg.RuleAlpha*v + (1-a.cfg.RuleAlpha)*a.ewmaThrough(id, a.instance-1))
		a.xAt[id] = a.instance
	}
}

// observeRuleStats updates X_n with the raw weights of the elapsed
// timeunit. A node outside both closures had and has zero raw weight:
// its last-unit and cumulative weights are unchanged and its smoothed
// weight only decays, which ewmaThrough applies when the value is
// next read. A node of the previous closure went quiet, which changes
// its last-unit weight.
//
//tiresias:hotpath
func (a *ADA) observeRuleStats() {
	if a.cfg.Rule == LastTimeUnit {
		for _, id := range a.prevClosure {
			a.x[id] = 0 // observed again below if touched again
		}
	}
	for _, id := range a.closure {
		a.observeX(int(id), a.rawA[id])
	}
}

// ewmaThrough brings an EWMARule engine's x[id] current through the
// given instance and returns it, first applying one multiply by 1−α
// per quiet instance since xAt[id] — exactly what the recurrence
// computes for a zero observation, so the value is bit-identical to
// updating every node every instance. The loop stops at zero, which
// Flush makes reachable (about 1360 multiplies from 1 at α = 0.4), so
// a node costs what its eager updates would have, at most that many,
// when it is next touched — and nothing while it is quiet.
//
//tiresias:hotpath
func (a *ADA) ewmaThrough(id, instance int) float64 {
	e := a.x[id]
	at := a.xAt[id]
	if at >= instance {
		return e
	}
	for decay := 1 - a.cfg.RuleAlpha; at < instance && e != 0; at++ {
		e = forecast.Flush(decay * e)
	}
	a.x[id], a.xAt[id] = e, instance
	return e
}

// ruleX returns the split-rule weight X_n for a node, as of the end of
// the previous instance when called from within a step.
func (a *ADA) ruleX(id int) float64 {
	switch a.cfg.Rule {
	case Uniform:
		return 1
	case EWMARule:
		return a.ewmaThrough(id, a.instance-1)
	}
	return a.x[id]
}

// setMember moves a node into or out of the SHHH set.
//
//tiresias:hotpath
func (a *ADA) setMember(id int, in bool) {
	if in {
		a.memberSet.add(int32(id))
	} else {
		a.memberSet.remove(int32(id))
	}
}

// indexState rebuilds the sparse indexes — closure and members — from
// the per-node state, after Init or ImportState filled it. Any node
// with a non-zero weight or flag, or a non-zero last-unit weight under
// LastTimeUnit, is listed in closure, so the next step zeroes and
// re-observes it whatever the arrays held.
func (a *ADA) indexState() {
	a.closure = a.closure[:0]
	for id := range a.rawA {
		if a.rawA[id] != 0 || a.weight[id] != 0 || a.ishh[id] || a.cfg.Rule == LastTimeUnit && a.x[id] != 0 {
			a.closure = append(a.closure, int32(id))
		}
	}
	a.members = a.memberSet.appendTo(a.members[:0], false)
}

// StepDense implements Engine. It is the flat, sparse per-instance
// core: every loop ranges over the touched closure, the SHHH members or
// the reference nodes, never over the tree. In the steady state (no
// tree growth, no membership change) it allocates nothing.
//
//tiresias:hotpath
func (a *ADA) StepDense(u *DenseUnit) (*StepState, error) {
	if !a.inited {
		return nil, errState
	}
	a.instance++

	// --- Initialization stage (lines 6-12). ---
	start := now()
	a.grow()
	a.candBuf = a.splits.appendTo(a.candBuf[:0], true)[:0] // clears the split marks
	for _, id := range a.gotMark {
		a.gotSplit[id] = false
	}
	a.gotMark = a.gotMark[:0]
	a.updateWeights(u)
	tUpdate := now().Sub(start)

	// --- SHHH and time-series adaptation (lines 13-25). ---
	start = now()
	a.adaptMembership()
	// Repair split-induced bias with reference series (§V-B5).
	if a.cfg.RefLevels > 0 {
		a.repairFromReferences()
	}
	// Append the new weights to every member's series (lines 26-29);
	// the root keeps its residual series whether or not it is a member.
	if !a.memberSet.has(hierarchy.Root) {
		a.appendNewest(hierarchy.Root)
	}
	for _, id := range a.members {
		a.appendNewest(int(id))
	}
	// Reference series and split-rule statistics.
	for i, id := range a.refIDs {
		a.refActual[i].Append(a.rawA[id])
	}
	if a.refCovered != a.tree.Len() {
		a.coverRefs(true)
	}
	a.observeRuleStats()
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

// updateWeights is Update-Ishh-and-Weight (Fig. 6): W_n and A_n of the
// current timeunit, with ishh ≡ W_n >= θ, over the ancestor closure of
// the touched IDs. Everything outside it is zero and light (θ > 0), so
// the previous closure is zeroed and the rest of the tree is left
// alone. Each level is visited in ascending ID order and pushes into
// its parents, so a parent sums its direct count and then its children
// in ascending ID order — the order, and therefore the floating-point
// result, of a full bottom-up sweep.
//
//tiresias:hotpath
func (a *ADA) updateWeights(u *DenseUnit) {
	a.closure, a.prevClosure = a.prevClosure[:0], a.closure
	for _, id := range a.prevClosure {
		a.rawA[id], a.weight[id], a.ishh[id] = 0, 0, false
	}
	t := a.tree
	for _, id := range u.IDs() {
		if int(id) >= t.Len() {
			continue // not in this engine's tree: no node to weigh
		}
		for x := int(id); x >= 0 && a.work[t.Depth(x)].add(int32(x)); x = t.Parent(x) {
		}
	}
	// Draining the levels shallow to deep is level order.
	for d := range a.work {
		a.closure = a.work[d].appendTo(a.closure, true)
	}
	for _, id := range a.closure {
		v := u.ValueAt(int(id))
		a.rawA[id], a.weight[id] = v, v
	}
	theta := a.cfg.Theta
	for hi := len(a.closure); hi > 0; {
		lo := hi - 1
		for d := t.Depth(int(a.closure[lo])); lo > 0 && t.Depth(int(a.closure[lo-1])) == d; lo-- {
		}
		for _, id := range a.closure[lo:hi] {
			heavy := a.weight[id] >= theta
			a.ishh[id] = heavy
			if p := t.Parent(int(id)); p >= 0 {
				a.rawA[p] += a.rawA[id]
				if !heavy {
					a.weight[p] += a.weight[id]
				}
			}
		}
		hi = lo
	}
}

// adaptMembership moves the SHHH set, and the series with it, to the
// new heavy-hitter positions (lines 13-25) and refreshes members.
//
//tiresias:hotpath
func (a *ADA) adaptMembership() {
	t := a.tree
	// Mark ancestors of newly heavy nodes for splitting (lines 13-17),
	// deepest level first. Only closure nodes can be heavy, and marks
	// land on their parents, which the closure contains.
	for i := len(a.closure) - 1; i >= 0; i-- {
		id := a.closure[i]
		if (a.ishh[id] || a.splits.has(id)) && !a.memberSet.has(id) {
			if p := t.Parent(int(id)); p >= 0 {
				a.splits.add(int32(p))
			}
		}
	}
	// Top-down split pass (lines 18-20; the root is always eligible).
	for _, id := range a.closure {
		if a.splits.has(id) && (a.memberSet.has(id) || id == hierarchy.Root) {
			a.split(int(id))
		}
	}
	// Bottom-up merge pass (lines 21-23) over the members, deepest
	// level first and descending ID within a level; a merge queues the
	// parent it made a member, one level up.
	a.members = a.memberSet.appendTo(a.members[:0], false)
	for _, id := range a.members {
		a.work[t.Depth(int(id))].add(id)
	}
	for d := len(a.work) - 1; d >= 0; d-- {
		for id := a.work[d].popMax(); id >= 0; id = a.work[d].popMax() {
			if a.memberSet.has(id) && !a.ishh[id] {
				a.merge(int(id))
			}
		}
	}
	// Root membership (lines 24-25). The root keeps its residual
	// series either way.
	a.setMember(hierarchy.Root, a.ishh[hierarchy.Root])
	if a.state[hierarchy.Root] == nil {
		a.state[hierarchy.Root] = a.freshSeries()
	}
	a.members = a.memberSet.appendTo(a.members[:0], false)
}

// appendNewest appends the instance's weight to the node's series,
// keeping the model's forecast of it, and advances the model.
//
//tiresias:hotpath
func (a *ADA) appendNewest(id int) {
	ns := a.state[id]
	if ns == nil {
		// A heavy hitter that received no series through split or
		// merge (possible only with direct interior counts); start a
		// fresh one.
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

// markGotSplit records that a node received a split series this
// instance.
//
//tiresias:hotpath
func (a *ADA) markGotSplit(id int) {
	if !a.gotSplit[id] {
		a.gotSplit[id] = true
		a.gotMark = append(a.gotMark, int32(id))
	}
}

// freshSeries returns an empty series whose model is seeded from
// nothing (EWMA-like behaviour until history accumulates).
//
//tiresias:hotpath
func (a *ADA) freshSeries() *nodeSeries {
	ns := a.getSeries()
	ns.copyModel(a.fresh)
	if ns.multi != nil {
		ns.multi.Reset()
	}
	return ns
}

// scaledCopy returns a series holder carrying ratio times src's state,
// copied into a pooled holder's ring, model and multi-scale state. The
// held forecast is not copied: the step's append overwrites it before
// anything reads it.
// Every holder has a multi-scale series exactly when Eta > 1, all of
// the engine's shape (ImportState enforces it for restored ones), so
// that copy cannot fail.
//
//tiresias:hotpath
func (a *ADA) scaledCopy(src *nodeSeries, ratio float64) *nodeSeries {
	child := a.getSeries()
	_ = child.actual.CopyFrom(src.actual)
	child.actual.Scale(ratio)
	child.copyModel(src.model)
	child.model.Scale(ratio)
	if child.multi != nil {
		_ = child.multi.CopyFrom(src.multi)
		child.multi.Scale(ratio)
	}
	return child
}

// split implements SPLIT(n) (Fig. 7): distribute n's series to its
// non-member children with scale ratios from the split rule. Children
// whose ratio is zero and whose subtree holds no heavy hitter are
// skipped (they would receive an all-zero series and immediately merge
// back); their weight stays accounted at n.
//
//tiresias:hotpath
func (a *ADA) split(id int) {
	cands := a.candBuf[:0]
	eligible := false
	for c := a.tree.FirstChild(id); c >= 0; c = a.tree.NextSibling(c) {
		if a.memberSet.has(int32(c)) {
			continue
		}
		cands = append(cands, int32(c))
		if a.weight[c] >= a.cfg.Theta || a.splits.has(int32(c)) {
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
		needsSeries := a.weight[c] >= a.cfg.Theta || a.splits.has(c32)
		if ratio == 0 && !needsSeries {
			// In the paper this child would receive a zero-scaled
			// series and immediately merge back into n; short-
			// circuit that round trip below.
			skippedLight++
			continue
		}
		a.state[c] = a.scaledCopy(parent, ratio)
		a.setMember(c, true)
		a.markGotSplit(c)
	}
	a.state[id] = nil
	a.setMember(id, false)
	if skippedLight > 0 {
		// Emulate the skipped children's merge-back: n stays a
		// member holding the zero residual series (the sum of the
		// zero-scaled series the skipped children would have
		// returned). If n is light it will merge upward normally.
		a.state[id] = a.scaledCopy(parent, 0)
		a.setMember(id, true)
	} else if id == hierarchy.Root {
		// The root must keep a (now empty) residual series holder.
		a.state[id] = a.freshSeries()
	}
	a.putSeries(parent)
}

// merge implements MERGE(n) (Fig. 8): fold the series of n — and of
// any sibling members that are also below threshold — into the parent,
// which becomes a member and is queued for the merge pass in turn.
//
//tiresias:hotpath
func (a *ADA) merge(id int) {
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
		if !a.memberSet.has(int32(c)) || a.ishh[c] {
			continue
		}
		src := a.state[c]
		if src != nil {
			// Series and model addition are exact thanks to
			// Holt-Winters linearity (Lemma 2).
			_ = dst.actual.AddRing(src.actual)
			if forecast.Compatible(dst.model, src.model) {
				_ = dst.model.Add(src.model)
			} else {
				// Shape mismatch (fresh EWMA vs seasoned HW):
				// refit from the merged actual series.
				a.valBuf = dst.actual.ValuesInto(a.valBuf) //tiresias:ignore hotpath (inlined grow path: the scratch reaches the window length once)
				a.fitModel(dst, a.valBuf)
			}
			if dst.multi != nil && src.multi != nil {
				_ = dst.multi.Add(src.multi)
			}
			a.putSeries(src)
		}
		a.state[c] = nil
		a.setMember(c, false)
	}
	a.setMember(pid, true)
	a.work[a.tree.Depth(pid)].add(int32(pid))
}

// repairFromReferences implements §V-B5: for every node that received
// a (possibly biased) split series this instance and has a reference
// series, replace its series with T_REF − Σ series of its heavy-hitter
// descendants. gotMark lists the split receivers in non-decreasing
// depth, so — as in the ID-order walk this replaces — an ancestor is
// repaired before any of its repaired descendants.
//
//tiresias:hotpath
func (a *ADA) repairFromReferences() {
	for _, id32 := range a.gotMark {
		id := int(id32)
		if !a.memberSet.has(id32) {
			continue
		}
		ri := a.refIdx[id]
		ns := a.state[id]
		if ri < 0 || ns == nil {
			continue
		}
		_ = ns.actual.CopyFrom(a.refActual[ri])
		a.subtractDescendants(id, ns.actual)
		a.valBuf = ns.actual.ValuesInto(a.valBuf) //tiresias:ignore hotpath (inlined grow path: the scratch reaches the window length once)
		if len(a.valBuf) > 1 {
			a.refit(ns, a.valBuf)
		}
	}
}

// subtractDescendants subtracts from r the actual series of every
// heavy-hitter descendant of id (excluding id itself), stopping
// descent at each member (deeper members are already discounted from
// it). The explicit stack holds, above each visited node's next
// sibling, its first child, so pop order is the recursive preorder
// walk exactly.
func (a *ADA) subtractDescendants(id int, r *series.Ring) {
	t := a.tree
	stack := append(a.stackBuf[:0], int32(t.FirstChild(id)))
	for len(stack) > 0 {
		c := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if c < 0 {
			continue
		}
		stack = append(stack, int32(t.NextSibling(c)))
		if a.memberSet.has(int32(c)) && a.state[c] != nil {
			_ = r.SubRing(a.state[c].actual)
			continue
		}
		stack = append(stack, int32(t.FirstChild(c)))
	}
	a.stackBuf = stack[:0]
}

// coverRefs creates reference series for the nodes that appeared in
// the top h levels since coverage was last ensured. Node IDs are
// assigned in insertion order, so those are exactly the IDs from
// refCovered on, and appending them keeps the reference slices in
// ascending ID order. With seed set a new entry starts from the node's
// current raw weight; Init instead fills the entries from its window.
func (a *ADA) coverRefs(seed bool) {
	for id := a.refCovered; id < a.tree.Len(); id++ {
		if d := a.tree.Depth(id); d < 1 || d > a.cfg.RefLevels {
			continue
		}
		r := series.NewRing(a.cfg.WindowLen)
		if seed {
			r.Append(a.rawA[id])
		}
		a.addRef(id, r)
	}
	a.refCovered = a.tree.Len()
}

// addRef appends a reference entry; callers add IDs in ascending order.
func (a *ADA) addRef(id int, r *series.Ring) {
	a.refIdx[id] = int32(len(a.refIDs))
	a.refIDs = append(a.refIDs, int32(id))
	a.refActual = append(a.refActual, r)
}

// snapshot assembles the StepState from the member list, reusing the
// engine-owned state. members is in ascending ID order, so
// HeavyHitters needs no sort.
//
//tiresias:hotpath
func (a *ADA) snapshot() *StepState {
	st := &a.snap
	st.Instance = a.instance
	st.HeavyHitters = st.HeavyHitters[:0]
	for _, id := range a.members {
		var actual, fc float64
		if ns := a.state[id]; ns != nil {
			if v, ok := ns.actual.Last(); ok {
				actual = v
			}
			fc = ns.forecast
		}
		st.HeavyHitters = append(st.HeavyHitters, HeavyHitter{ID: int(id), Key: a.tree.Key(int(id)), Actual: actual, Forecast: fc})
	}
	return st
}

// SeriesOf implements Engine.
func (a *ADA) SeriesOf(id int) []float64 {
	if id < 0 || id >= len(a.state) || a.state[id] == nil {
		return nil
	}
	return a.state[id].actual.Values()
}

// MultiScaleOf returns the node's coarse-timescale series at scale i
// (0 = base), or nil when multi-scale tracking is disabled or the node
// holds no series.
func (a *ADA) MultiScaleOf(id, i int) []float64 {
	if id < 0 || id >= len(a.state) || a.state[id] == nil || a.state[id].multi == nil {
		return nil
	}
	return append([]float64(nil), a.state[id].multi.Series(i)...)
}

// HeavyHitterIDs returns the current SHHH member IDs in ascending
// order, served from the incrementally maintained member list (no
// full-tree scan).
func (a *ADA) HeavyHitterIDs() []int32 {
	if len(a.members) == 0 {
		return nil
	}
	return append([]int32(nil), a.members...)
}

// Memory implements Engine.
func (a *ADA) Memory() MemoryStats {
	m := MemoryStats{TreeNodes: a.tree.Len()}
	for _, ns := range a.state {
		if ns == nil {
			continue
		}
		m.SeriesFloats += ns.actual.Len() + 1 // the held forecast
		if ns.multi != nil {
			m.SeriesFloats += ns.multi.Total()
		}
	}
	for _, r := range a.refActual {
		m.RefSeriesFloats += r.Len()
	}
	// The split-rule statistic, and under EWMARule its instance column.
	m.AuxFloats = len(a.x) + len(a.xAt)
	return m
}
