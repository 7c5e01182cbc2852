package experiments

import (
	"fmt"
	"sort"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/evalx"
	"tiresias/internal/gen"
	"tiresias/internal/refmethod"
)

// Result is what every experiment produces: a renderable report plus
// machine-checkable observations.
type Result struct {
	// ID is the experiment identifier ("table1", "fig9", ...).
	ID string
	// Text is the paper-style rendering.
	Text string
	// Values exposes headline numbers for assertions (keyed by
	// metric name).
	Values map[string]float64
	// PlotData carries raw CSV point series for figures, keyed by
	// file stem (e.g. "fig9_curves"); cmd/tiresias-bench -data
	// writes them to disk for re-plotting.
	PlotData map[string]string
}

// Table1 reproduces Table I: the first-level distribution of customer
// care tickets, comparing the generated shares with the paper's.
func Table1(p Profile) (*Result, error) {
	w, err := CCDTroubleWorkload(p)
	if err != nil {
		return nil, err
	}
	dist := w.Dataset.FirstLevelDistribution()
	paper := gen.CCDTicketMix()
	paperOf := make(map[string]float64, len(paper))
	for _, m := range paper {
		paperOf[m.Name] = m.Share
	}
	t := &table{
		title:  "Table I — CCD customer calls: first-level ticket mix",
		header: []string{"Ticket Type", "Generated %", "Paper %"},
	}
	vals := map[string]float64{}
	for _, e := range dist {
		t.addRow(e.Name, pct(e.Share), pct(paperOf[e.Name]))
		vals["share:"+e.Name] = e.Share
	}
	t.addNote("records=%d over %d timeunits", w.TotalRecords(), len(w.Units))
	return &Result{ID: "table1", Text: t.Render(), Values: vals}, nil
}

// Table2 reproduces Table II: hierarchy depth and typical per-level
// degrees for the three hierarchical domains.
func Table2(p Profile) (*Result, error) {
	t := &table{
		title:  "Table II — hierarchy properties (typical degree at kth level)",
		header: []string{"Data", "Type", "Depth", "k=1", "k=2", "k=3", "k=4"},
	}
	vals := map[string]float64{}
	add := func(data, typ string, s gen.Shape) {
		row := []string{data, typ, fmt.Sprintf("%d", len(s.Degrees)+1)}
		for k := 0; k < 4; k++ {
			if k < len(s.Degrees) {
				row = append(row, fmt.Sprintf("%d", s.Degrees[k]))
				vals[fmt.Sprintf("%s:k%d", typ, k+1)] = float64(s.Degrees[k])
			} else {
				row = append(row, "N/A")
			}
		}
		t.addRow(row...)
	}
	add("CCD", "Trouble descr.", gen.CCDTroubleShape())
	add("CCD", "Network path", gen.CCDNetworkShape(p.NetScale))
	add("SCD", "Network path", gen.SCDNetworkShape(p.NetScale))
	t.addNote("network fan-outs scaled by %.2f for this profile (1.0 = paper size)", p.NetScale)
	return &Result{ID: "table2", Text: t.Render(), Values: vals}, nil
}

// stageRow carries Table III's per-stage timing row.
type stageRow struct {
	reading time.Duration
	stages  algo.StageTimings
}

// runTimed drives an engine over a workload, accumulating stage
// timings; "reading traces" is the windowing cost measured on the raw
// records.
func runTimed(e algo.Engine, w *Workload, warm int) (stageRow, error) {
	var row stageRow
	startRead := time.Now()
	// Re-grouping from raw records stands in for "Reading Traces".
	_, _, err := streamCollect(w)
	if err != nil {
		return row, err
	}
	row.reading = time.Since(startRead)
	st, err := e.Init(w.Units[:warm])
	if err != nil {
		return row, err
	}
	row.stages.Add(st.Timings)
	for _, u := range w.Units[warm:] {
		st, err = algo.StepTimeunit(e, u)
		if err != nil {
			return row, err
		}
		row.stages.Add(st.Timings)
	}
	return row, nil
}

func streamCollect(w *Workload) (int, int, error) {
	n := 0
	for _, u := range w.Units {
		n += len(u)
	}
	return n, len(w.Units), nil
}

// Table3 reproduces Table III: total running time of ADA vs STA at two
// timeunit sizes, decomposed into the four stages.
func Table3(p Profile) (*Result, error) {
	t := &table{
		title:  "Table III — running time by stage (ms)",
		header: []string{"Δ", "Algo", "Reading", "UpdHier", "CreateTS", "Detect", "Sum", "STA/ADA"},
	}
	vals := map[string]float64{}
	for _, delta := range []time.Duration{p.Delta, 4 * p.Delta} {
		prof := p
		prof.Delta = delta
		// Keep wall-clock span constant: fewer units at larger Δ.
		ratio := int(delta / p.Delta)
		prof.WarmUnits = p.WarmUnits / ratio
		if prof.WarmUnits < 4 {
			prof.WarmUnits = 4
		}
		prof.RunUnits = p.RunUnits / ratio
		if prof.RunUnits < 2 {
			prof.RunUnits = 2
		}
		prof.BaseRate = p.BaseRate * float64(ratio)
		w, err := CCDNetWorkload(prof, nil)
		if err != nil {
			return nil, err
		}
		var sums [2]time.Duration
		for i, name := range []string{"ADA", "STA"} {
			e, err := engineFor(name, prof, algo.LongTermHistory, 0, nil)
			if err != nil {
				return nil, err
			}
			row, err := runTimed(e, w, prof.WarmUnits)
			if err != nil {
				return nil, err
			}
			sum := row.reading + row.stages.Total()
			sums[i] = sum
			t.addRow(
				delta.String(), name,
				ms(row.reading), ms(row.stages.UpdatingHierarchies),
				ms(row.stages.CreatingTimeSeries), ms(row.stages.DetectingAnomalies),
				ms(sum), "",
			)
			vals[fmt.Sprintf("%s:%s:createTS_ms", delta, name)] = float64(row.stages.CreatingTimeSeries.Milliseconds())
			vals[fmt.Sprintf("%s:%s:sum_ms", delta, name)] = float64(sum.Milliseconds())
		}
		speedup := float64(sums[1]) / float64(sums[0])
		t.addRow(delta.String(), "", "", "", "", "", "", f2(speedup))
		vals[fmt.Sprintf("%s:speedup", delta)] = speedup
	}
	t.addNote("paper: ADA is 14.2x (Δ=15m) and 5.4x (Δ=1h) faster overall; Creating Time Series dominates STA")
	return &Result{ID: "table3", Text: t.Render(), Values: vals}, nil
}

func ms(d time.Duration) string { return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000) }

// Table4 reproduces Table IV: normalized memory cost of STA vs ADA
// with h = 0, 1, 2 reference levels.
func Table4(p Profile) (*Result, error) {
	w, err := CCDNetWorkload(p, nil)
	if err != nil {
		return nil, err
	}
	t := &table{
		title:  "Table IV — normalized memory cost (float slots / tree node)",
		header: []string{"Algorithm", "#ref levels (h)", "Normalized space", "vs STA"},
	}
	vals := map[string]float64{}
	run := func(name string, h int) (algo.MemoryStats, error) {
		e, err := engineFor(name, p, algo.LongTermHistory, h, nil)
		if err != nil {
			return algo.MemoryStats{}, err
		}
		if _, err := e.Init(w.Units[:p.WarmUnits]); err != nil {
			return algo.MemoryStats{}, err
		}
		for _, u := range w.Units[p.WarmUnits:] {
			if _, err := algo.StepTimeunit(e, u); err != nil {
				return algo.MemoryStats{}, err
			}
		}
		return e.Memory(), nil
	}
	sta, err := run("STA", 0)
	if err != nil {
		return nil, err
	}
	t.addRow("STA", "N/A", f2(sta.Normalized()), "1.00")
	vals["STA"] = sta.Normalized()
	for _, h := range []int{0, 1, 2} {
		m, err := run("ADA", h)
		if err != nil {
			return nil, err
		}
		frac := m.Normalized() / sta.Normalized()
		t.addRow("ADA", fmt.Sprintf("%d", h), f2(m.Normalized()), f2(frac))
		vals[fmt.Sprintf("ADA:h%d", h)] = m.Normalized()
		vals[fmt.Sprintf("ADA:h%d:frac", h)] = frac
	}
	t.addNote("paper: ADA ≈ 36%% of STA at h=0, rising with h (43%% at h=2)")
	return &Result{ID: "table4", Text: t.Render(), Values: vals}, nil
}

// table5Workload builds a CCD workload with injected anomalies for the
// accuracy studies (Tables V–VI).
func table5Workload(p Profile) (*Workload, []gen.AnomalySpec, error) {
	shape := gen.CCDNetworkShape(p.NetScale)
	leaves := shape.Leaves()
	anoms := []gen.AnomalySpec{
		{Path: leaves[0][:1], StartUnit: p.WarmUnits + p.RunUnits/6, EndUnit: p.WarmUnits + p.RunUnits/6 + 3, ExtraPerUnit: p.BaseRate},
		{Path: leaves[len(leaves)/2][:2], StartUnit: p.WarmUnits + p.RunUnits/3, EndUnit: p.WarmUnits + p.RunUnits/3 + 2, ExtraPerUnit: p.BaseRate * 0.8},
		{Path: leaves[len(leaves)-1][:3], StartUnit: p.WarmUnits + p.RunUnits/2, EndUnit: p.WarmUnits + p.RunUnits/2 + 2, ExtraPerUnit: p.BaseRate * 0.6},
		{Path: leaves[len(leaves)/3], StartUnit: p.WarmUnits + 2*p.RunUnits/3, EndUnit: p.WarmUnits + 2*p.RunUnits/3 + 2, ExtraPerUnit: p.BaseRate * 0.5},
	}
	w, err := CCDNetWorkload(p, anoms)
	if err != nil {
		return nil, nil, err
	}
	return w, anoms, nil
}

// runDetect drives an engine plus Definition-4 screening, returning
// flagged events and the screened universe.
func runDetect(e algo.Engine, w *Workload, warm int, th detect.Thresholds) (flagged, screened []evalx.Event, err error) {
	det, err := detect.New(th)
	if err != nil {
		return nil, nil, err
	}
	if _, err := e.Init(w.Units[:warm]); err != nil {
		return nil, nil, err
	}
	for i, u := range w.Units[warm:] {
		st, err := algo.StepTimeunit(e, u)
		if err != nil {
			return nil, nil, err
		}
		anoms := det.Scan(st, time.Time{})
		flaggedSet := make(map[evalx.Event]bool, len(anoms))
		for _, a := range anoms {
			ev := evalx.Event{Key: a.Key, Instance: i}
			flagged = append(flagged, ev)
			flaggedSet[ev] = true
		}
		for _, hh := range st.HeavyHitters {
			ev := evalx.Event{Key: hh.Node.Key, Instance: i}
			if !flaggedSet[ev] {
				screened = append(screened, ev)
			}
		}
	}
	return flagged, screened, nil
}

// Table5 reproduces Table V: anomaly detection accuracy of ADA's split
// rules (and reference levels) against STA as ground truth.
func Table5(p Profile) (*Result, error) {
	w, _, err := table5Workload(p)
	if err != nil {
		return nil, err
	}
	th := detect.Thresholds{RT: 2.8, DT: p.Theta}
	sta, err := engineFor("STA", p, algo.LongTermHistory, 0, nil)
	if err != nil {
		return nil, err
	}
	truth, truthScreened, err := runDetect(sta, w, p.WarmUnits, th)
	if err != nil {
		return nil, err
	}
	universe := append(append([]evalx.Event(nil), truth...), truthScreened...)

	t := &table{
		title:  "Table V — ADA anomaly accuracy vs STA ground truth",
		header: []string{"Split rule", "h", "Accuracy", "Precision", "Recall"},
	}
	vals := map[string]float64{}
	type variant struct {
		rule algo.SplitRule
		h    int
	}
	variants := []variant{
		{rule: algo.LongTermHistory, h: 0},
		{rule: algo.LongTermHistory, h: 1},
		{rule: algo.LongTermHistory, h: 2},
		{rule: algo.EWMARule, h: 2},
		{rule: algo.LastTimeUnit, h: 2},
		{rule: algo.Uniform, h: 2},
	}
	for _, v := range variants {
		ada, err := engineFor("ADA", p, v.rule, v.h, nil)
		if err != nil {
			return nil, err
		}
		pred, _, err := runDetect(ada, w, p.WarmUnits, th)
		if err != nil {
			return nil, err
		}
		c := evalx.Compare(universe, truth, pred)
		name := fmt.Sprintf("%s:h%d", v.rule, v.h)
		t.addRow(v.rule.String(), fmt.Sprintf("%d", v.h), pct(c.Accuracy()), pct(c.Precision()), pct(c.Recall()))
		vals[name+":accuracy"] = c.Accuracy()
		vals[name+":precision"] = c.Precision()
		vals[name+":recall"] = c.Recall()
	}
	t.addNote("paper: ≈99.7%% accuracy at h=2; Long-Term-History strong overall, Uniform best recall, EWMA best precision")
	return &Result{ID: "table5", Text: t.Render(), Values: vals}, nil
}

// Table6 reproduces Table VI: comparison of ADA against the VHO-level
// control-chart reference method, with Type 1/2/3 metrics and the
// depth distribution of new anomalies.
func Table6(p Profile) (*Result, error) {
	w, _, err := table5Workload(p)
	if err != nil {
		return nil, err
	}
	// Reference method over the same timeunits (alarms only count
	// after its calibration window).
	chart, err := refmethod.New(refmethod.Config{K: 3, Window: p.WarmUnits / 2, MinSigma: 1})
	if err != nil {
		return nil, err
	}
	var reference []evalx.Event
	for i, u := range w.Units {
		for _, al := range chart.Observe(u) {
			if i >= p.WarmUnits {
				reference = append(reference, evalx.Event{Key: al.Key, Instance: i - p.WarmUnits})
			}
		}
	}
	ada, err := engineFor("ADA", p, algo.LongTermHistory, 2, nil)
	if err != nil {
		return nil, err
	}
	th := detect.Thresholds{RT: 2.8, DT: p.Theta}
	flagged, screened, err := runDetect(ada, w, p.WarmUnits, th)
	if err != nil {
		return nil, err
	}
	cmp := evalx.CompareWithReference(reference, flagged, screened)

	t := &table{
		title:  "Table VI — ADA vs VHO-level control-chart reference",
		header: []string{"Metric", "Value"},
	}
	t.addRow("TA (true alarms)", fmt.Sprintf("%d", cmp.TrueAlarms))
	t.addRow("MA (missed anomalies)", fmt.Sprintf("%d", cmp.MissedAnomalies))
	t.addRow("NA (new anomalies)", fmt.Sprintf("%d", cmp.NewAnomalies))
	t.addRow("TN (true negatives)", fmt.Sprintf("%d", cmp.TrueNegatives))
	t.addRow("Type 1 (accuracy)", pct(cmp.Type1()))
	t.addRow("Type 2 (TA coverage)", pct(cmp.Type2()))
	t.addRow("Type 3 (TN agreement)", pct(cmp.Type3()))
	depths := make([]int, 0, len(cmp.NewByDepth))
	for d := range cmp.NewByDepth {
		depths = append(depths, d)
	}
	sort.Ints(depths)
	totalNew := 0
	for _, d := range depths {
		totalNew += cmp.NewByDepth[d]
	}
	levelName := map[int]string{1: "VHO", 2: "IO", 3: "CO", 4: "DSLAM"}
	belowVHO := 0.0
	for _, d := range depths {
		frac := float64(cmp.NewByDepth[d]) / float64(max(totalNew, 1))
		name := levelName[d]
		if name == "" {
			name = fmt.Sprintf("depth %d", d)
		}
		t.addRow("NA at "+name, pct(frac))
		if d > 1 {
			belowVHO += frac
		}
	}
	t.addNote("paper: Type1=94.1%%, Type2=90.9%%, Type3=94.1%%; 95%% of NAs below the VHO level")
	vals := map[string]float64{
		"type1":    cmp.Type1(),
		"type2":    cmp.Type2(),
		"type3":    cmp.Type3(),
		"newBelow": belowVHO,
		"TA":       float64(cmp.TrueAlarms),
		"NA":       float64(cmp.NewAnomalies),
	}
	return &Result{ID: "table6", Text: t.Render(), Values: vals}, nil
}
