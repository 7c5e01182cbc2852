package algo

import (
	"tiresias/internal/forecast"
	"tiresias/internal/hierarchy"
	"tiresias/internal/series"
	"tiresias/internal/shhh"
)

// nodeSeries is the per-heavy-hitter state: the actual and forecast
// series (n.actual / n.forecast in Fig. 5) plus the live forecasting
// model and, optionally, the coarser timescales of §V-B6.
type nodeSeries struct {
	actual *series.Ring
	fcast  *series.Ring
	model  forecast.Linear
	multi  *series.MultiScale
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
// to the tree remains only where the tree itself changes or is
// (de)serialized: growth (grow, the CSR rebuild), Init, ExportState
// and ImportState. All scratch — including the returned StepState —
// is reused across instances, so a steady-state StepDense performs
// zero allocations.
type ADA struct {
	cfg      Config
	tree     *hierarchy.Tree
	instance int
	inited   bool

	// Per-node state, indexed by node ID and grown with the tree.
	// weight, rawA and ishh are zero/false outside closure.
	state    []*nodeSeries // non-nil iff the node is in SHHH (plus the root)
	inSHHH   []bool
	weight   []float64 // modified weight W_n of the current instance
	rawA     []float64 // raw aggregated weight A_n of the current instance
	ishh     []bool
	tosplit  []bool
	gotSplit []bool // received a split series this instance (for §V-B5 repair)

	// closure is the ancestor closure of the current instance's touched
	// IDs in level order (ascending ID within a level); prevClosure is
	// the previous instance's, kept for one step to zero what went
	// quiet.
	closure     []int32
	prevClosure []int32

	// Touched-ID lists for tosplit/gotSplit, so each instance clears
	// only what the previous instance marked.
	splitMark []int32
	gotMark   []int32

	// Split-rule statistics (X_n), per node. ewmaA[id] is current
	// through instance ewmaAt[id]; ewmaThrough applies the decay of the
	// quiet instances since, when the value is read.
	prevA  []float64 // raw weight in the previous timeunit
	cumA   []float64 // cumulative raw weight over all timeunits
	ewmaA  []float64 // exponentially smoothed raw weight
	ewmaAt []int

	// Reference series for nodes in the top h levels (§V-B5), as
	// parallel slices in ascending node-ID order; refIdx maps a node ID
	// to its position, -1 for nodes without one.
	refIDs     []int32
	refActual  []*series.Ring
	refModel   []forecast.Linear
	refIdx     []int32
	refCovered int // tree size when reference coverage was last ensured

	// memberSet holds the SHHH member IDs (the set form of inSHHH);
	// members is its ascending listing as of the last snapshot.
	memberSet idSet
	members   []int32
	// work orders node ranks: it sorts the closure and queues the merge
	// pass. Empty between passes.
	work idSet

	// Reusable scratch and pools for the steady-state step.
	snap      StepState     // returned by snapshot, reused every instance
	freeNS    []*nodeSeries // pooled series holders (rings attached)
	freeRings []*series.Ring
	candBuf   []int32   // split candidates
	xsBuf     []float64 // split ratios
	valBuf    []float64 // Ring.ValuesInto scratch for model refits
	stackBuf  []int32   // DFS stack for subtractDescendants
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
	return &ADA{cfg: cfg, tree: tree}, nil
}

// Name implements Engine.
func (a *ADA) Name() string { return "ADA" }

// Tree implements Engine.
func (a *ADA) Tree() *hierarchy.Tree { return a.tree }

// grow extends the per-node state slices to cover newly inserted
// nodes.
func (a *ADA) grow() {
	n := a.tree.Len()
	for len(a.state) < n {
		a.state = append(a.state, nil)
		a.inSHHH = append(a.inSHHH, false)
		a.weight = append(a.weight, 0)
		a.rawA = append(a.rawA, 0)
		a.ishh = append(a.ishh, false)
		a.tosplit = append(a.tosplit, false)
		a.gotSplit = append(a.gotSplit, false)
		a.prevA = append(a.prevA, 0)
		a.cumA = append(a.cumA, 0)
		a.ewmaA = append(a.ewmaA, 0)
		a.ewmaAt = append(a.ewmaAt, a.instance)
		a.refIdx = append(a.refIdx, -1)
	}
	a.memberSet.grow(n)
	a.work.grow(n)
}

// Init implements Engine: the first time instance performs the same
// work as STA (lines 2-5 of Fig. 5), seeding series and models for the
// initial SHHH set, the root, and the reference nodes.
func (a *ADA) Init(window []Timeunit) (*StepState, error) {
	if a.inited {
		return nil, errState
	}
	a.inited = true

	start := now()
	// Materialize the tree and per-unit counts.
	units := make([]Timeunit, 0, a.cfg.WindowLen)
	for _, u := range window {
		cp := make(Timeunit, len(u))
		for k, v := range u {
			cp[k] = v
			a.tree.InsertKey(k)
		}
		units = append(units, cp)
		if len(units) > a.cfg.WindowLen {
			units = units[1:]
		}
	}
	if len(units) == 0 {
		units = append(units, Timeunit{})
	}
	a.grow()
	newest := units[len(units)-1]
	res := shhh.Compute(a.tree, newest, a.cfg.Theta)
	copy(a.weight, res.W)
	copy(a.rawA, res.A)
	copy(a.ishh, res.InSet)
	tUpdate := now().Sub(start)

	// Reconstruct series for the initial SHHH members plus the root
	// (the root always holds the residual series so that it can
	// re-enter SHHH without information loss).
	start = now()
	owners := append([]*hierarchy.Node(nil), res.Set...)
	if !res.IsHH(a.tree.Root()) {
		owners = append(owners, a.tree.Root())
	}
	hist := make(map[int][]float64, len(owners))
	for _, n := range owners {
		hist[n.ID] = make([]float64, 0, len(units))
	}
	var w []float64
	for _, u := range units {
		w = shhh.FrozenWeightsInto(a.tree, u, res.InSet, w)
		for _, n := range owners {
			hist[n.ID] = append(hist[n.ID], w[n.ID])
		}
	}
	for _, n := range owners {
		ts := hist[n.ID]
		ns := a.newNodeSeries()
		ns.actual.SetValues(ts)
		ns.model = a.cfg.NewForecaster(ts[:len(ts)-1])
		// Reconstruct the forecast trajectory by replay so the
		// forecast ring aligns with the actual ring.
		replay := a.cfg.NewForecaster(nil)
		for _, v := range ts {
			ns.fcast.Append(replay.Forecast())
			replay.Update(v)
		}
		if ns.multi != nil {
			for _, v := range ts {
				ns.multi.Update(v)
			}
		}
		// Advance the live model over the newest value so state is
		// "post-instance", matching Step's epilogue.
		ns.model.Update(ts[len(ts)-1])
		a.state[n.ID] = ns
		a.inSHHH[n.ID] = res.IsHH(n)
	}

	// Reference series for the top h levels (§V-B5, raw weights A_n)
	// and split-rule statistics, seeded in one pass over the window.
	a.coverRefs(a.tree.CSR(), false)
	var agg []float64
	alpha := a.cfg.RuleAlpha
	for _, u := range units {
		agg = shhh.AggregateInto(a.tree, u, agg)
		for i, id := range a.refIDs {
			a.refActual[i].Append(agg[id])
		}
		for id, v := range agg {
			a.prevA[id] = v
			a.cumA[id] += v
			a.ewmaA[id] = forecast.Flush(alpha*v + (1-alpha)*a.ewmaA[id])
		}
	}
	for i, r := range a.refActual {
		vals := r.Values()
		if len(vals) == 0 {
			a.refModel[i] = a.cfg.NewForecaster(nil)
			continue
		}
		a.refModel[i] = a.cfg.NewForecaster(vals[:len(vals)-1])
		a.refModel[i].Update(vals[len(vals)-1])
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

func (a *ADA) newNodeSeries() *nodeSeries {
	ns := &nodeSeries{
		actual: series.NewRing(a.cfg.WindowLen),
		fcast:  series.NewRing(a.cfg.WindowLen),
	}
	if a.cfg.Eta > 1 {
		ms, err := series.NewMultiScale(a.cfg.Lambda, a.cfg.Eta, a.cfg.WindowLen)
		if err == nil {
			ns.multi = ms
		}
	}
	return ns
}

// getSeries returns a series holder with empty rings, reusing a pooled
// one when available.
func (a *ADA) getSeries() *nodeSeries {
	if n := len(a.freeNS); n > 0 {
		ns := a.freeNS[n-1]
		a.freeNS = a.freeNS[:n-1]
		ns.actual.Reset()
		ns.fcast.Reset()
		return ns
	}
	return &nodeSeries{
		actual: series.NewRing(a.cfg.WindowLen),
		fcast:  series.NewRing(a.cfg.WindowLen),
	}
}

// putSeries returns a discarded holder to the pool. The model and
// multi-scale state are dropped (their shapes vary), the rings are
// kept.
func (a *ADA) putSeries(ns *nodeSeries) {
	if ns == nil {
		return
	}
	ns.model = nil
	ns.multi = nil
	a.freeNS = append(a.freeNS, ns)
}

// getRing returns an empty ring of window capacity from the pool.
func (a *ADA) getRing() *series.Ring {
	if n := len(a.freeRings); n > 0 {
		r := a.freeRings[n-1]
		a.freeRings = a.freeRings[:n-1]
		r.Reset()
		return r
	}
	return series.NewRing(a.cfg.WindowLen)
}

// putRing pools a discarded ring.
func (a *ADA) putRing(r *series.Ring) {
	if r != nil && r.Cap() == a.cfg.WindowLen {
		a.freeRings = append(a.freeRings, r)
	}
}

// observeRuleStats updates the X_n statistics with the raw weights of
// the elapsed timeunit. A node outside both closures had and has zero
// raw weight: its prevA and cumA are unchanged and its ewmaA only
// decays, which ewmaThrough applies when the value is next read.
//
//tiresias:hotpath
func (a *ADA) observeRuleStats() {
	for _, id := range a.prevClosure {
		a.prevA[id] = a.rawA[id] // zero unless touched again
	}
	alpha := a.cfg.RuleAlpha
	for _, id := range a.closure {
		v := a.rawA[id]
		a.prevA[id] = v
		a.cumA[id] += v
		a.ewmaA[id] = forecast.Flush(alpha*v + (1-alpha)*a.ewmaThrough(int(id), a.instance-1))
		a.ewmaAt[id] = a.instance
	}
}

// ewmaThrough returns the node's smoothed raw weight as of the end of
// the given instance, first applying one multiply by 1−α per quiet
// instance since it was last brought current — exactly what the
// recurrence computes for a zero observation, so the value is
// bit-identical to updating every node every instance. The loop stops
// at zero, which Flush makes reachable (about 1360 multiplies from 1 at
// α = 0.4), so a node costs what its eager updates would have, at most
// that many, when it is next touched — and nothing while it is quiet.
//
//tiresias:hotpath
func (a *ADA) ewmaThrough(id, instance int) float64 {
	e := a.ewmaA[id]
	at := a.ewmaAt[id]
	if at >= instance {
		return e
	}
	for decay := 1 - a.cfg.RuleAlpha; at < instance && e != 0; at++ {
		e = forecast.Flush(decay * e)
	}
	a.ewmaA[id], a.ewmaAt[id] = e, instance
	return e
}

// ruleX returns the split-rule weight X_n for a node, as of the end of
// the previous instance when called from within a step.
func (a *ADA) ruleX(id int) float64 {
	switch a.cfg.Rule {
	case Uniform:
		return 1
	case LastTimeUnit:
		return a.prevA[id]
	case LongTermHistory:
		return a.cumA[id]
	default: // EWMARule
		return a.ewmaThrough(id, a.instance-1)
	}
}

// setMember moves a node into or out of the SHHH set.
//
//tiresias:hotpath
func (a *ADA) setMember(id int, in bool) {
	if a.inSHHH[id] == in {
		return
	}
	a.inSHHH[id] = in
	if in {
		a.memberSet.add(int32(id))
	} else {
		a.memberSet.remove(int32(id))
	}
}

// indexState rebuilds the sparse indexes — closure, memberSet, members
// — from the dense per-node arrays, after Init or ImportState filled
// them. Any node with a non-zero weight, flag or prevA is listed in
// closure, so the next step zeroes and re-observes it whatever the
// arrays held.
func (a *ADA) indexState() {
	a.closure = a.closure[:0]
	for id := range a.rawA {
		if a.rawA[id] != 0 || a.weight[id] != 0 || a.ishh[id] || a.prevA[id] != 0 {
			a.closure = append(a.closure, int32(id))
		}
		if a.inSHHH[id] {
			a.memberSet.add(int32(id))
		}
	}
	a.members = a.memberSet.appendTo(a.members[:0], false)
}

// StepDense implements Engine.
//
//tiresias:hotpath
func (a *ADA) StepDense(u *DenseUnit) (*StepState, error) {
	if !a.inited {
		return nil, errState
	}
	return a.stepDense(u)
}

// stepDense is the flat, sparse per-instance core: every loop ranges
// over the touched closure, the SHHH members or the reference nodes,
// never over the tree. In the steady state (no tree growth, no
// membership change) it allocates nothing.
//
//tiresias:hotpath
func (a *ADA) stepDense(u *DenseUnit) (*StepState, error) {
	a.instance++

	// --- Initialization stage (lines 6-12). ---
	start := now()
	a.grow()
	csr := a.tree.CSR()
	for _, id := range a.splitMark {
		a.tosplit[id] = false
	}
	a.splitMark = a.splitMark[:0]
	for _, id := range a.gotMark {
		a.gotSplit[id] = false
	}
	a.gotMark = a.gotMark[:0]
	a.updateWeights(u, csr)
	tUpdate := now().Sub(start)

	// --- SHHH and time-series adaptation (lines 13-25). ---
	start = now()
	a.adaptMembership(csr)
	// Repair split-induced bias with reference series (§V-B5).
	if a.cfg.RefLevels > 0 {
		a.repairFromReferences(csr)
	}
	// Append the new weights to every member's series (lines 26-29);
	// the root keeps its residual series whether or not it is a member.
	rootID := a.tree.Root().ID
	if !a.inSHHH[rootID] {
		a.appendNewest(rootID)
	}
	for _, id := range a.members {
		a.appendNewest(int(id))
	}
	// Reference series and split-rule statistics.
	for i, id := range a.refIDs {
		a.refActual[i].Append(a.rawA[id])
		a.refModel[i].Update(a.rawA[id])
	}
	if a.refCovered != a.tree.Len() {
		a.coverRefs(csr, true)
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
// in ChildIDs order — the order, and therefore the floating-point
// result, of a full bottom-up sweep.
//
//tiresias:hotpath
func (a *ADA) updateWeights(u *DenseUnit, csr *hierarchy.CSR) {
	a.closure, a.prevClosure = a.prevClosure[:0], a.closure
	for _, id := range a.prevClosure {
		a.rawA[id], a.weight[id], a.ishh[id] = 0, 0, false
	}
	parent, rank, depth := csr.Parent, csr.Rank, csr.Depth
	for _, id := range u.IDs() {
		if int(id) >= len(rank) {
			continue // not in this engine's tree: no node to weigh
		}
		for x := id; x >= 0 && a.work.add(rank[x]); x = parent[x] {
		}
	}
	// Draining the ranks in ascending order is level order; map each
	// back to its ID in place.
	a.closure = a.work.appendTo(a.closure, true)
	for i, r := range a.closure {
		id := csr.TopDown[r]
		a.closure[i] = id
		v := u.ValueAt(int(id))
		a.rawA[id], a.weight[id] = v, v
	}
	theta := a.cfg.Theta
	for hi := len(a.closure); hi > 0; {
		lo := hi - 1
		for d := depth[a.closure[lo]]; lo > 0 && depth[a.closure[lo-1]] == d; lo-- {
		}
		for _, id := range a.closure[lo:hi] {
			heavy := a.weight[id] >= theta
			a.ishh[id] = heavy
			if p := parent[id]; p >= 0 {
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
func (a *ADA) adaptMembership(csr *hierarchy.CSR) {
	// Mark ancestors of newly heavy nodes for splitting (lines 13-17),
	// deepest level first. Only closure nodes can be heavy, and marks
	// land on their parents, which the closure contains.
	for i := len(a.closure) - 1; i >= 0; i-- {
		id := a.closure[i]
		if (a.ishh[id] || a.tosplit[id]) && !a.inSHHH[id] {
			if p := csr.Parent[id]; p >= 0 {
				a.markSplit(int(p))
			}
		}
	}
	// Top-down split pass (lines 18-20; the root is always eligible).
	for _, id := range a.closure {
		if a.tosplit[id] && (a.inSHHH[id] || csr.Parent[id] < 0) {
			a.split(int(id), csr)
		}
	}
	// Bottom-up merge pass (lines 21-23) over the members, deepest
	// first; a merge queues the parent it made a member.
	a.members = a.memberSet.appendTo(a.members[:0], false)
	for _, id := range a.members {
		a.work.add(csr.Rank[id])
	}
	for r := a.work.popMax(); r >= 0; r = a.work.popMax() {
		id := int(csr.TopDown[r])
		if a.inSHHH[id] && !a.ishh[id] {
			a.merge(id, csr)
		}
	}
	// Root membership (lines 24-25). The root keeps its residual
	// series either way.
	rootID := a.tree.Root().ID
	a.setMember(rootID, a.ishh[rootID])
	if a.state[rootID] == nil {
		a.state[rootID] = a.freshSeries()
	}
	a.members = a.memberSet.appendTo(a.members[:0], false)
}

// appendNewest appends the instance's weight and forecast to the
// node's series and advances its model.
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
	ns.fcast.Append(ns.model.Forecast())
	ns.actual.Append(a.weight[id])
	ns.model.Update(a.weight[id])
	if ns.multi != nil {
		ns.multi.Update(a.weight[id])
	}
}

// markSplit flags a node for the split pass, recording it for the
// next instance's O(touched) clear.
//
//tiresias:hotpath
func (a *ADA) markSplit(id int) {
	if !a.tosplit[id] {
		a.tosplit[id] = true
		a.splitMark = append(a.splitMark, int32(id))
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

// freshSeries creates an empty series whose model is seeded from
// nothing (EWMA-like behaviour until history accumulates).
func (a *ADA) freshSeries() *nodeSeries {
	ns := a.getSeries()
	ns.model = a.cfg.NewForecaster(nil)
	if a.cfg.Eta > 1 {
		ms, err := series.NewMultiScale(a.cfg.Lambda, a.cfg.Eta, a.cfg.WindowLen)
		if err == nil {
			ns.multi = ms
		}
	}
	return ns
}

// scaledCopy builds a child series holder carrying ratio times the
// parent's state, drawing rings from the pool instead of cloning.
func (a *ADA) scaledCopy(src *nodeSeries, ratio float64) *nodeSeries {
	child := a.getSeries()
	_ = child.actual.CopyFrom(src.actual)
	child.actual.Scale(ratio)
	_ = child.fcast.CopyFrom(src.fcast)
	child.fcast.Scale(ratio)
	child.model = src.model.Clone()
	child.model.Scale(ratio)
	if src.multi != nil {
		child.multi = src.multi.Clone()
		child.multi.Scale(ratio)
	}
	return child
}

// split implements SPLIT(n) (Fig. 7): distribute n's series to its
// non-member children with scale ratios from the split rule. Children
// whose ratio is zero and whose subtree holds no heavy hitter are
// skipped (they would receive an all-zero series and immediately merge
// back); their weight stays accounted at n.
func (a *ADA) split(id int, csr *hierarchy.CSR) {
	cands := a.candBuf[:0]
	eligible := false
	for j := csr.ChildOff[id]; j < csr.ChildOff[id+1]; j++ {
		c := int(csr.ChildIDs[j])
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
	} else if csr.Parent[id] < 0 {
		// The root must keep a (now empty) residual series holder.
		a.state[id] = a.freshSeries()
	}
	a.putSeries(parent)
}

// merge implements MERGE(n) (Fig. 8): fold the series of n — and of
// any sibling members that are also below threshold — into the parent,
// which becomes a member and is queued for the merge pass in turn.
func (a *ADA) merge(id int, csr *hierarchy.CSR) {
	if a.ishh[id] {
		return
	}
	p := csr.Parent[id]
	if p < 0 {
		return // root handled by the membership rule
	}
	pid := int(p)
	dst := a.state[pid]
	if dst == nil {
		dst = a.freshSeries()
		a.state[pid] = dst
	}
	for j := csr.ChildOff[pid]; j < csr.ChildOff[pid+1]; j++ {
		c := int(csr.ChildIDs[j])
		if !a.inSHHH[c] || a.ishh[c] {
			continue
		}
		src := a.state[c]
		if src != nil {
			// Series and model addition are exact thanks to
			// Holt-Winters linearity (Lemma 2).
			_ = dst.actual.AddRing(src.actual)
			_ = dst.fcast.AddRing(src.fcast)
			if forecast.Compatible(dst.model, src.model) {
				_ = dst.model.Add(src.model)
			} else {
				// Shape mismatch (fresh EWMA vs seasoned HW):
				// refit from the merged actual series.
				a.valBuf = dst.actual.ValuesInto(a.valBuf)
				dst.model = a.cfg.NewForecaster(a.valBuf)
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
	a.work.add(csr.Rank[pid])
}

// repairFromReferences implements §V-B5: for every node that received
// a (possibly biased) split series this instance and has a reference
// series, replace its series with T_REF − Σ series of its heavy-hitter
// descendants. gotMark lists the split receivers in non-decreasing
// depth, so — as in the ID-order walk this replaces — an ancestor is
// repaired before any of its repaired descendants.
func (a *ADA) repairFromReferences(csr *hierarchy.CSR) {
	for _, id32 := range a.gotMark {
		id := int(id32)
		if !a.inSHHH[id] {
			continue
		}
		ri := a.refIdx[id]
		ns := a.state[id]
		if ri < 0 || ns == nil {
			continue
		}
		repaired := a.getRing()
		_ = repaired.CopyFrom(a.refActual[ri])
		a.subtractDescendants(id, repaired, csr)
		a.putRing(ns.actual)
		ns.actual = repaired
		a.valBuf = repaired.ValuesInto(a.valBuf)
		vals := a.valBuf
		if len(vals) > 1 {
			ns.model = a.cfg.NewForecaster(vals[:len(vals)-1])
			a.putRing(ns.fcast)
			ns.fcast = a.getRing()
			replay := a.cfg.NewForecaster(nil)
			for _, v := range vals {
				ns.fcast.Append(replay.Forecast())
				replay.Update(v)
			}
			ns.model.Update(vals[len(vals)-1])
		}
	}
}

// subtractDescendants subtracts from r the actual series of every
// heavy-hitter descendant of id (excluding id itself), stopping
// descent at each member (deeper members are already discounted from
// it). The explicit stack pushes children in reverse so pop order
// matches the recursive preorder walk exactly.
func (a *ADA) subtractDescendants(id int, r *series.Ring, csr *hierarchy.CSR) {
	stack := a.stackBuf[:0]
	for j := csr.ChildOff[id+1] - 1; j >= csr.ChildOff[id]; j-- {
		stack = append(stack, csr.ChildIDs[j])
	}
	for len(stack) > 0 {
		c := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		if a.inSHHH[c] && a.state[c] != nil {
			_ = r.SubRing(a.state[c].actual)
			continue
		}
		for j := csr.ChildOff[c+1] - 1; j >= csr.ChildOff[c]; j-- {
			stack = append(stack, csr.ChildIDs[j])
		}
	}
	a.stackBuf = stack[:0]
}

// coverRefs creates reference series for the nodes that appeared in
// the top h levels since coverage was last ensured. Node IDs are
// assigned in insertion order, so those are exactly the IDs from
// refCovered on, and appending them keeps the reference slices in
// ascending ID order. With seed set a new entry starts from the node's
// current raw weight; Init instead fills the entries from its window.
func (a *ADA) coverRefs(csr *hierarchy.CSR, seed bool) {
	for id := a.refCovered; id < a.tree.Len(); id++ {
		if d := int(csr.Depth[id]); d < 1 || d > a.cfg.RefLevels {
			continue
		}
		r := series.NewRing(a.cfg.WindowLen)
		var m forecast.Linear
		if seed {
			r.Append(a.rawA[id])
			m = a.cfg.NewForecaster(nil)
			m.Update(a.rawA[id])
		}
		a.addRef(id, r, m)
	}
	a.refCovered = a.tree.Len()
}

// addRef appends a reference entry; callers add IDs in ascending order.
func (a *ADA) addRef(id int, r *series.Ring, m forecast.Linear) {
	a.refIdx[id] = int32(len(a.refIDs))
	a.refIDs = append(a.refIDs, int32(id))
	a.refActual = append(a.refActual, r)
	a.refModel = append(a.refModel, m)
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
			if v, ok := ns.fcast.Last(); ok {
				fc = v
			}
		}
		st.HeavyHitters = append(st.HeavyHitters, HeavyHitter{Node: a.tree.Node(int(id)), Actual: actual, Forecast: fc})
	}
	return st
}

// SeriesOf implements Engine.
func (a *ADA) SeriesOf(n *hierarchy.Node) []float64 {
	if n.ID >= len(a.state) || a.state[n.ID] == nil {
		return nil
	}
	return a.state[n.ID].actual.Values()
}

// ForecastSeriesOf implements Engine.
func (a *ADA) ForecastSeriesOf(n *hierarchy.Node) []float64 {
	if n.ID >= len(a.state) || a.state[n.ID] == nil {
		return nil
	}
	return a.state[n.ID].fcast.Values()
}

// MultiScaleOf returns the node's coarse-timescale series at scale i
// (0 = base), or nil when multi-scale tracking is disabled or the node
// holds no series.
func (a *ADA) MultiScaleOf(n *hierarchy.Node, i int) []float64 {
	if n.ID >= len(a.state) || a.state[n.ID] == nil || a.state[n.ID].multi == nil {
		return nil
	}
	return append([]float64(nil), a.state[n.ID].multi.Series(i)...)
}

// HeavyHitterNodes returns the current SHHH members in node-ID order,
// served from the incrementally maintained member list (no full-tree
// scan).
func (a *ADA) HeavyHitterNodes() []*hierarchy.Node {
	if len(a.members) == 0 {
		return nil
	}
	out := make([]*hierarchy.Node, len(a.members))
	for i, id := range a.members {
		out[i] = a.tree.Node(int(id))
	}
	return out
}

// Memory implements Engine.
func (a *ADA) Memory() MemoryStats {
	m := MemoryStats{TreeNodes: a.tree.Len()}
	for _, ns := range a.state {
		if ns == nil {
			continue
		}
		m.SeriesFloats += ns.actual.Len() + ns.fcast.Len()
		if ns.multi != nil {
			m.SeriesFloats += ns.multi.Total()
		}
	}
	for _, r := range a.refActual {
		m.RefSeriesFloats += r.Len()
	}
	// prevA/cumA/ewmaA bookkeeping: 3 floats per node.
	m.AuxFloats = 3 * a.tree.Len()
	return m
}
