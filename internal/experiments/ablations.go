package experiments

import (
	"fmt"
	"math"
	"time"

	"tiresias/internal/algo"
	"tiresias/internal/detect"
	"tiresias/internal/evalx"
	"tiresias/internal/forecast"
	"tiresias/internal/gen"
	"tiresias/internal/hhd"
	"tiresias/internal/hierarchy"
)

// Sensitivity sweeps the RT/DT thresholds of Definition 4 against the
// injected ground truth (the paper's "sensitivity test" that selected
// RT=2.8, DT=8).
func Sensitivity(p Profile) (*Result, error) {
	w, anoms, err := table5Workload(p)
	if err != nil {
		return nil, err
	}
	// Ground-truth events: injected anomaly (node, instance) pairs,
	// offset to detection-relative instances.
	var truth []evalx.Event
	for _, a := range anoms {
		for u := a.StartUnit; u < a.EndUnit; u++ {
			truth = append(truth, evalx.Event{Key: a.Key(), Instance: u - p.WindowLen})
		}
	}
	t := &table{
		title:  "Sensitivity — detection vs RT/DT (injected ground truth)",
		header: []string{"RT", "DT", "DetectedInjected", "TotalAlarms"},
	}
	vals := map[string]float64{}
	for _, rt := range []float64{1.5, 2.8, 5.0} {
		for _, dt := range []float64{2, 8, 32} {
			ada, err := engineFor("ADA", p, w, algo.LongTermHistory, 2)
			if err != nil {
				return nil, err
			}
			flagged, _, err := runDetect(ada, w, p.WindowLen, detect.Thresholds{RT: rt, DT: dt})
			if err != nil {
				return nil, err
			}
			detected := evalx.CompareWithReference(truth, flagged, nil).TrueAlarms
			frac := float64(detected) / float64(max(len(truth), 1))
			t.addRow(f2(rt), f2(dt), pct(frac), fmt.Sprintf("%d", len(flagged)))
			vals[fmt.Sprintf("rt%.1f:dt%.0f:recall", rt, dt)] = frac
			vals[fmt.Sprintf("rt%.1f:dt%.0f:alarms", rt, dt)] = float64(len(flagged))
		}
	}
	t.addNote("looser thresholds raise both coverage and alarm volume; the paper picked RT=2.8, DT=8")
	return &Result{ID: "sensitivity", Text: t.Render(), Values: vals}, nil
}

// AblateSeason compares single-season and dual-season Holt-Winters
// forecasting on a dual-periodicity workload — the design choice
// behind using ξ·S_day + (1−ξ)·S_week for CCD.
func AblateSeason(p Profile) (*Result, error) {
	// Build an hourly dual-season workload (day + week).
	prof := p
	prof.Delta = time.Hour
	prof.WindowLen = 4 * 7 * 24
	prof.RunUnits = 7 * 24
	prof.BaseRate = p.BaseRate / 4
	w, err := CCDNetWorkload(prof, nil)
	if err != nil {
		return nil, err
	}
	totals := make([]float64, len(w.Units))
	for i, u := range w.Units {
		totals[i] = u.Total()
	}
	day, week := 24, 7*24
	hist := totals[:prof.WindowLen]
	evalSeries := totals[prof.WindowLen:]

	score := func(f forecast.Forecaster) float64 {
		var sum float64
		for _, v := range evalSeries {
			sum += math.Abs(f.Forecast() - v)
			f.Update(v)
		}
		return sum / float64(len(evalSeries))
	}
	ewma := forecast.NewEWMA(0.4, hist...)
	hw, err := forecast.NewHoltWinters(0.4, 0.05, 0.3, day, hist)
	if err != nil {
		return nil, err
	}
	dual, err := forecast.NewDualSeason(0.4, 0.05, 0.3, 0.76, day, week, hist)
	if err != nil {
		return nil, err
	}
	maeE, maeH, maeD := score(ewma), score(hw), score(dual)
	t := &table{
		title:  "Ablation — forecasting model on dual-seasonality CCD aggregate",
		header: []string{"Model", "MAE", "vs EWMA"},
	}
	t.addRow("EWMA(0.4)", f2(maeE), "1.00")
	t.addRow("Holt-Winters (day)", f2(maeH), f2(maeH/maeE))
	t.addRow("Dual-season (day+week, ξ=0.76)", f2(maeD), f2(maeD/maeE))
	t.addNote("paper (§VI): EWMA is inaccurate under strong periodicity; CCD uses two linearly combined seasonal factors")
	return &Result{ID: "ablate-season", Text: t.Render(), Values: map[string]float64{
		"ewma": maeE, "hw": maeH, "dual": maeD,
	}}, nil
}

// AblateScales measures the cost of the multi-timescale add-on
// (§V-B6): memory with η = 1 vs η = 3, and that coarse scales
// aggregate consistently.
func AblateScales(p Profile) (*Result, error) {
	w, err := CCDNetWorkload(p, nil)
	if err != nil {
		return nil, err
	}
	run := func(lambda, eta int) (algo.MemoryStats, *algo.ADA, error) {
		prof := p
		prof.Lambda, prof.Eta = lambda, eta
		e, err := engineFor("ADA", prof, w, algo.LongTermHistory, 0)
		if err != nil {
			return algo.MemoryStats{}, nil, err
		}
		if err := Replay(e, w.Tree, w.Units, p.WindowLen, nil); err != nil {
			return algo.MemoryStats{}, nil, err
		}
		return e.Memory(), e.(*algo.ADA), nil
	}
	base, _, err := run(0, 0)
	if err != nil {
		return nil, err
	}
	multi, ada, err := run(4, 3)
	if err != nil {
		return nil, err
	}
	t := &table{
		title:  "Ablation — multi-timescale series (§V-B6)",
		header: []string{"Config", "SeriesFloats", "Normalized"},
	}
	t.addRow("η=1 (base scale only)", fmt.Sprintf("%d", base.SeriesFloats), f2(base.Normalized()))
	t.addRow("λ=4, η=3", fmt.Sprintf("%d", multi.SeriesFloats), f2(multi.Normalized()))
	// Consistency: coarse scale sums λ base buckets.
	consistent := 1.0
	for _, n := range ada.HeavyHitterIDs() {
		baseS := ada.MultiScaleOf(int(n), 0)
		coarse := ada.MultiScaleOf(int(n), 1)
		if len(coarse) == 0 || len(baseS) < 4 {
			continue
		}
		var s float64
		// The newest complete coarse bucket covers base samples
		// [k*4, k*4+4) for k = len(coarse)-1 relative to trimming;
		// verify total mass instead, which is trim-invariant.
		for _, v := range baseS {
			s += v
		}
		var c float64
		for _, v := range coarse {
			c += v
		}
		if s > 0 && math.Abs(c-s)/s > 0.5 {
			consistent = 0
		}
	}
	t.addNote("amortized O(1) updates; coarse scales enable ς < Δ and long-horizon forecasting")
	return &Result{ID: "ablate-scales", Text: t.Render(), Values: map[string]float64{
		"baseFloats":  float64(base.SeriesFloats),
		"multiFloats": float64(multi.SeriesFloats),
		"consistent":  consistent,
	}}, nil
}

// AblateHHD contrasts the cash-register long-term HHD detector (the
// related work STA extends, §VIII) against Tiresias on a short
// localized spike: HHD surfaces the chronically busy aggregates but is
// blind to the one-timeunit incident Tiresias flags — the paper's
// motivation for per-timeunit heavy hitters with a sliding window.
func AblateHHD(p Profile) (*Result, error) {
	// Find a *cold* depth-2 node on a spike-free baseline, so that
	// long-term membership of the spike location can only come from
	// the incident itself.
	base, err := CCDNetWorkload(p, nil)
	if err != nil {
		return nil, err
	}
	coldScan, err := hhd.New(0.15, base.Tree)
	if err != nil {
		return nil, err
	}
	for _, u := range base.Units {
		coldScan.Observe(u)
	}
	coldPath := []string{"vho1", "io2"}
	shape := gen.CCDNetworkShape(p.NetScale)
	for v := shape.Degrees[0] - 1; v >= 0; v-- {
		for io := shape.Degrees[1] - 1; io >= 0; io-- {
			k := hierarchy.KeyOf([]string{fmt.Sprintf("vho%d", v), fmt.Sprintf("io%d", io)})
			hot := false
			for _, hh := range coldScan.Query() {
				if k.IsAncestorOf(hh.Key) {
					hot = true
					break
				}
			}
			if !hot {
				coldPath = k.Path()
				v = -1 // break outer
				break
			}
		}
	}
	spike := gen.AnomalySpec{
		Path:         coldPath,
		StartUnit:    p.WindowLen + p.RunUnits/2,
		EndUnit:      p.WindowLen + p.RunUnits/2 + 2,
		ExtraPerUnit: p.BaseRate,
	}
	w, err := CCDNetWorkload(p, []gen.AnomalySpec{spike})
	if err != nil {
		return nil, err
	}
	// Long-term HHD over the whole stream. A chronically busy
	// ancestor (vho1) is always in the long-term set, so "coverage"
	// is trivially true; the blind spot is temporal — the set before
	// the spike equals the set after it, and the spike node itself
	// never becomes a member.
	lt, err := hhd.New(0.15, w.Tree)
	if err != nil {
		return nil, err
	}
	for _, u := range w.Units {
		lt.Observe(u)
	}
	// Localization test: does the spike's own node (or anything
	// below it) enter the long-term set? Chronic ancestors do not
	// count — they were members before the incident too.
	hhdSees := false
	for _, hh := range lt.Query() {
		if spike.Key().IsAncestorOf(hh.Key) {
			hhdSees = true
		}
	}
	hhdSet := lt.Query()

	// Tiresias over the same stream.
	ada, err := engineFor("ADA", p, w, algo.LongTermHistory, 2)
	if err != nil {
		return nil, err
	}
	flagged, _, err := runDetect(ada, w, p.WindowLen, detect.Thresholds{RT: 2.5, DT: p.Thresholds.DT})
	if err != nil {
		return nil, err
	}
	tiresiasSees := false
	for _, e := range flagged {
		abs := e.Instance + p.WindowLen
		if abs >= spike.StartUnit-1 && abs <= spike.EndUnit+1 && spike.Key().IsAncestorOf(e.Key) {
			tiresiasSees = true
		}
	}
	t := &table{
		title:  "Ablation — cash-register HHD vs sliding-window Tiresias on a short spike",
		header: []string{"Detector", "Long-term HHs", fmt.Sprintf("Localizes 2-unit spike at %s", spike.Key())},
	}
	t.addRow("HHD (cumulative, φ=15%)", fmt.Sprintf("%d", len(hhdSet)), fmt.Sprintf("%v", hhdSees))
	t.addRow("Tiresias (ADA, Definition 4)", "n/a", fmt.Sprintf("%v", tiresiasSees))
	t.addNote("paper §VIII: HHD suits long-term heavy hitters at coarse granularity; detecting recent-period anomalies needs the timeunit extension (STA) and its adaptive form (ADA)")
	vals := map[string]float64{"hhdSees": b2f(hhdSees), "tiresiasSees": b2f(tiresiasSees)}
	return &Result{ID: "ablate-hhd", Text: t.Render(), Values: vals}, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ByID dispatches one experiment by identifier.
func ByID(id string, p Profile) (*Result, error) {
	m := map[string]func(Profile) (*Result, error){
		"table1":        Table1,
		"table2":        Table2,
		"table3":        Table3,
		"table4":        Table4,
		"table5":        Table5,
		"table6":        Table6,
		"fig1":          Fig1,
		"fig2":          Fig2,
		"fig9":          Fig9,
		"fig11":         Fig11,
		"fig12":         Fig12,
		"sensitivity":   Sensitivity,
		"ablate-season": AblateSeason,
		"ablate-scales": AblateScales,
		"ablate-hhd":    AblateHHD,
	}
	run, ok := m[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	return run(p)
}

// IDs lists the known experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"table1", "table2", "fig1", "fig2", "fig9", "fig11", "fig12",
		"table3", "table4", "table5", "table6",
		"sensitivity", "ablate-season", "ablate-scales", "ablate-hhd",
	}
}
